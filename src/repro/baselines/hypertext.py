"""The hypertext-navigation baseline (Entrez / SRS style).

Section 2: the indexed-sources approach *"allows the users to
interactively navigate from a result of one query in one member
database to a result in another database, by using indexes and links"*
— but *"neither provides a mechanism to directly integrate data from
relational databases nor to perform data cleansing"*.

This implementation builds a keyword index per source and supports
link following.  The integrated gene-disease query is *not* a single
operation here; :meth:`integrated_gene_disease_query` simulates the
manual browsing session a scientist would need, counting every page
view so the architecture benchmark can report the interaction cost.
"""

from repro.baselines.interfaces import IntegrationSystem, SystemTraits
from repro.mediator.fetch import FetchRequest
from repro.navigation.links import resolve_url
from repro.util.errors import QueryError

_TRAITS = SystemTraits(
    shields_source_details=False,
    global_schema_model="none",
    single_access_point=True,
    requires_query_language_knowledge=False,
    comprehensive_query_capability=False,
    operations_on="per-source",
    reorganizes_results=False,
    reconciles_results=False,
    handles_uncertainty=False,
    integrates_via_global_schema=False,
    supports_annotations=False,
    self_describing_model=False,
    integrates_self_generated_data=False,
    new_evaluation_functions=False,
    archival_functionality=False,
)


class HypertextNavigationSystem(IntegrationSystem):
    """Keyword indexes plus link navigation, nothing more."""

    name = "Hypertext (Entrez/SRS)"
    approach = "hypertext navigation"

    def __init__(self, wrappers):
        self.wrappers = {wrapper.name: wrapper for wrapper in wrappers}
        self._indexes = {}
        for wrapper in wrappers:
            self._indexes[wrapper.name] = self._build_index(wrapper)

    @staticmethod
    def _build_index(wrapper):
        """Token -> record positions, over every textual field."""
        index = {}
        for position, record in enumerate(
            wrapper.fetch(FetchRequest(purpose="index-build"))
        ):
            tokens = set()
            for value in record.values():
                values = value if isinstance(value, (list, tuple)) else [value]
                for item in values:
                    for token in str(item).lower().split():
                        tokens.add(token.strip(".,;"))
            for token in tokens:
                index.setdefault(token, []).append(position)
        return index

    def traits(self):
        return _TRAITS

    # -- what the architecture can do ------------------------------------------

    def search(self, source_name, keyword):
        """Keyword search in one source's index (one 'page view')."""
        if source_name not in self.wrappers:
            raise QueryError(f"unknown source {source_name!r}")
        positions = self._indexes[source_name].get(keyword.lower(), [])
        records = self.wrappers[source_name].fetch(
            FetchRequest(purpose="page-view")
        )
        return [records[position] for position in positions]

    def follow_link(self, url):
        """Follow one web link to the referenced record."""
        source_name, target_id = resolve_url(url)
        wrapper = self.wrappers.get(source_name)
        if wrapper is None:
            raise QueryError(f"link leaves the indexed sources: {url}")
        key_label = {"LocusLink": "LocusID", "GO": "GoID",
                     "OMIM": "MimNumber", "PubMed": "Pmid"}[source_name]
        records = wrapper.fetch(
            FetchRequest(((key_label, "=", target_id),), purpose="follow-link")
        )
        return records[0] if records else None

    # -- the benchmark workloads -------------------------------------------------

    def integrated_gene_disease_query(self):
        """Simulate the manual session: page through every locus, open
        its GO links, open its OMIM links, keep the qualifying ones.

        The answer is computable but the effort is the point: one page
        view per locus plus one per link followed — exactly what the
        paper means by hypertext navigation not supporting *automated
        large-scale analysis tasks*.
        """
        locuslink = self.wrappers["LocusLink"]
        omim = self.wrappers["OMIM"]
        user_actions = 0
        answer = set()
        for record in locuslink.fetch(FetchRequest(purpose="browse")):
            user_actions += 1  # open the locus report page
            has_go = False
            for go_id in record.get("GoIDs", []):
                user_actions += 1  # follow the GO link
                if self.follow_link(
                    f"http://godatabase.org/cgi-bin/go.cgi?query={go_id}"
                ):
                    has_go = True
            has_omim = False
            for mim in record.get("OmimIDs", []):
                user_actions += 1  # follow the OMIM link
                if self.follow_link(
                    "http://www.ncbi.nlm.nih.gov/entrez/dispomim.cgi"
                    f"?id={mim}"
                ):
                    has_omim = True
            if not has_omim:
                # A careful user also searches OMIM for the symbol
                # (OMIM curation may be ahead of LocusLink).
                user_actions += 1
                if omim.fetch(
                    FetchRequest(
                        (("GeneSymbol", "=", record["Symbol"]),),
                        purpose="symbol-search",
                    )
                ):
                    has_omim = True
            if has_go and not has_omim:
                answer.add(record["LocusID"])
        return answer, {
            "user_actions": user_actions,
            "automated": False,
        }

    def disease_association_query(self):
        """Manual symbol lookups: search OMIM for each locus's symbol."""
        locuslink = self.wrappers["LocusLink"]
        omim = self.wrappers["OMIM"]
        user_actions = 0
        answer = set()
        for record in locuslink.fetch(FetchRequest(purpose="browse")):
            user_actions += 1
            if record.get("OmimIDs"):
                answer.add(record["LocusID"])
                continue
            # Search OMIM by exact symbol (no reconciliation possible).
            user_actions += 1
            hits = omim.fetch(
                FetchRequest(
                    (("GeneSymbol", "=", record["Symbol"]),),
                    purpose="symbol-search",
                )
            )
            if hits:
                answer.add(record["LocusID"])
        return answer, {
            "user_actions": user_actions,
            "automated": False,
        }
