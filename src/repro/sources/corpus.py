"""Seeded construction of a consistent multi-source annotation corpus.

Every experiment needs LocusLink, GO and OMIM populated so that their
cross-references agree on one underlying biological ground truth:
loci annotated with GO terms, loci associated with OMIM entries via
gene symbols, citations annotating loci.  :class:`AnnotationCorpus`
builds all of it from a single seed, keeps the ground truth for
scoring, and can inject the *semantic conflicts and contradictions*
(paper requirement 6) the reconciliation experiment measures:

``symbol_case``
    OMIM lists the gene symbol in a different case than LocusLink —
    a naive symbol join misses the association.
``symbol_alias``
    OMIM lists an alias symbol instead of the official one.
``stale_go``
    LocusLink annotates a locus with a term that GO has marked
    obsolete — a cross-source contradiction.
``dangling_omim``
    LocusLink references a MIM number that does not exist in OMIM.
"""

from dataclasses import dataclass, field, replace

from repro.sources.go.generator import GoGenerator
from repro.sources.go.ontology import GoOntology
from repro.sources.locuslink.generator import LocusLinkGenerator
from repro.sources.locuslink.store import LocusLinkStore
from repro.sources.omim.generator import OmimGenerator
from repro.sources.omim.store import OmimStore
from repro.sources.pubmedlike.generator import CitationGenerator
from repro.sources.pubmedlike.store import CitationStore
from repro.util.errors import ConfigurationError
from repro.util.rng import DeterministicRng

CONFLICT_KINDS = ("symbol_case", "symbol_alias", "stale_go", "dangling_omim")


@dataclass(frozen=True)
class CorpusParameters:
    """Size and behaviour knobs of a generated corpus.

    The defaults give the scale the Figure-5 experiment uses: 500 loci,
    300 GO terms, 150 OMIM entries.
    """

    loci: int = 500
    go_terms: int = 300
    omim_entries: int = 150
    go_annotation_rate: float = 0.7
    max_go_per_locus: int = 4
    omim_link_rate: float = 0.3
    max_omim_per_locus: int = 2
    #: Fraction of gene-disease associations recorded *only* on the
    #: OMIM side (via gene symbol), with no back-reference in the
    #: locus record — OMIM curation running ahead of LocusLink.  These
    #: are the associations only a symbol join can find, and the ones
    #: symbol conflicts can hide.
    omim_only_rate: float = 0.35
    conflict_rate: float = 0.0

    def __post_init__(self):
        if self.loci < 1 or self.go_terms < 3 or self.omim_entries < 1:
            raise ConfigurationError(
                "corpus needs >=1 locus, >=3 GO terms, >=1 OMIM entry"
            )
        for rate_name in ("go_annotation_rate", "omim_link_rate",
                          "conflict_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{rate_name} must be in [0, 1], got {rate}"
                )


@dataclass(frozen=True)
class Conflict:
    """One injected cross-source contradiction."""

    kind: str
    locus_id: int
    detail: str


@dataclass
class GroundTruth:
    """The intended biological facts, independent of source mangling.

    ``go_by_locus`` and ``omim_by_locus`` record the *true* annotations
    and associations; conflict injection changes how sources spell
    them, never the truth itself — so integration quality is scored
    against these maps.
    """

    go_by_locus: dict = field(default_factory=dict)
    omim_by_locus: dict = field(default_factory=dict)
    conflicts: list = field(default_factory=list)

    def loci_with_go(self):
        return {locus for locus, terms in self.go_by_locus.items() if terms}

    def loci_with_omim(self):
        return {locus for locus, mims in self.omim_by_locus.items() if mims}

    def figure5b_expected(self):
        """LocusIDs the Figure-5(b) query must return: some GO function
        but no OMIM disease association."""
        return self.loci_with_go() - self.loci_with_omim()


class AnnotationCorpus:
    """A consistent LocusLink + GO + OMIM population with ground truth."""

    def __init__(self, locuslink, go, omim, ground_truth, seed, parameters):
        self.locuslink = locuslink
        self.go = go
        self.omim = omim
        self.ground_truth = ground_truth
        self.seed = seed
        self.parameters = parameters

    @classmethod
    def generate(cls, seed=0, parameters=None):
        """Build a corpus deterministically from ``seed``."""
        parameters = parameters or CorpusParameters()
        rng = DeterministicRng(seed)

        go_terms = GoGenerator(rng.substream("go")).generate(
            parameters.go_terms
        )
        go = GoOntology(go_terms)
        annotatable = [
            term.go_id for term in go.all_terms()
            if not term.obsolete and not term.is_root
        ]
        obsolete_ids = [
            term.go_id for term in go.all_terms() if term.obsolete
        ]

        omim_generator = OmimGenerator(rng.substream("omim"))
        omim_records = omim_generator.generate(parameters.omim_entries)

        loci = LocusLinkGenerator(rng.substream("locuslink")).generate(
            parameters.loci
        )

        truth = GroundTruth()
        link_rng = rng.substream("links")
        conflict_rng = rng.substream("conflicts")

        cls._link_go(loci, annotatable, truth, parameters, link_rng)
        cls._link_omim(
            loci, omim_records, omim_generator, truth, parameters, link_rng
        )
        cls._inject_conflicts(
            loci, omim_records, obsolete_ids, truth, parameters, conflict_rng
        )

        corpus = cls(
            locuslink=LocusLinkStore(loci),
            go=go,
            omim=OmimStore(omim_records),
            ground_truth=truth,
            seed=seed,
            parameters=parameters,
        )
        return corpus

    # -- linking ---------------------------------------------------------------

    @staticmethod
    def _link_go(loci, annotatable, truth, parameters, rng):
        for record in loci:
            truth.go_by_locus[record.locus_id] = set()
            if not annotatable or not rng.bernoulli(
                parameters.go_annotation_rate
            ):
                continue
            count = rng.randint(
                1, min(parameters.max_go_per_locus, len(annotatable))
            )
            chosen = sorted(rng.sample(annotatable, count))
            record.go_ids.extend(chosen)
            truth.go_by_locus[record.locus_id].update(chosen)

    @staticmethod
    def _link_omim(loci, omim_records, omim_generator, truth, parameters,
                   rng):
        for record in loci:
            truth.omim_by_locus[record.locus_id] = set()
            if not omim_records or not rng.bernoulli(
                parameters.omim_link_rate
            ):
                continue
            count = rng.randint(
                1, min(parameters.max_omim_per_locus, len(omim_records))
            )
            for entry in rng.sample(omim_records, count):
                if record.symbol in entry.gene_symbols:
                    continue
                if not rng.bernoulli(parameters.omim_only_rate):
                    record.omim_ids.append(entry.mim_number)
                entry.gene_symbols.append(record.symbol)
                if entry.title.startswith("PHENOTYPE ENTRY"):
                    omim_generator.retitle_for_symbol(entry, record.symbol)
                truth.omim_by_locus[record.locus_id].add(entry.mim_number)

    # -- conflict injection -------------------------------------------------------

    @classmethod
    def _inject_conflicts(cls, loci, omim_records, obsolete_ids, truth,
                          parameters, rng):
        if parameters.conflict_rate <= 0.0:
            return
        entries_by_mim = {entry.mim_number: entry for entry in omim_records}
        for record in loci:
            if not rng.bernoulli(parameters.conflict_rate):
                continue
            # Symbol conflicts carry the experiment (they are what
            # reconciliation uniquely repairs), so they are drawn twice
            # as often as the reference conflicts.
            kind = rng.choice(
                ("symbol_case", "symbol_alias") + CONFLICT_KINDS
            )
            conflict = cls._inject_one(
                kind, record, entries_by_mim, obsolete_ids, truth, rng
            )
            if conflict is not None:
                truth.conflicts.append(conflict)

    @staticmethod
    def _inject_one(kind, record, entries_by_mim, obsolete_ids, truth, rng):
        if kind in ("symbol_case", "symbol_alias"):
            linked = [
                mim
                for mim in sorted(truth.omim_by_locus[record.locus_id])
                if mim in entries_by_mim
            ]
            if not linked:
                return None
            # Prefer associations recorded only on the OMIM side: a
            # mangled symbol there actually hides the association from
            # non-reconciling joins.
            symbol_only = [
                mim for mim in linked if mim not in record.omim_ids
            ]
            entry = entries_by_mim[rng.choice(symbol_only or linked)]
            if record.symbol not in entry.gene_symbols:
                return None
            index = entry.gene_symbols.index(record.symbol)
            if kind == "symbol_case":
                mangled = record.symbol.lower()
            else:
                if not record.aliases:
                    return None
                mangled = rng.choice(record.aliases)
            entry.gene_symbols[index] = mangled
            return Conflict(
                kind=kind,
                locus_id=record.locus_id,
                detail=(
                    f"OMIM {entry.mim_number} lists {mangled!r} for "
                    f"official symbol {record.symbol!r}"
                ),
            )
        if kind == "stale_go":
            if not obsolete_ids:
                return None
            stale = rng.choice(obsolete_ids)
            if stale in record.go_ids:
                return None
            record.go_ids.append(stale)
            return Conflict(
                kind=kind,
                locus_id=record.locus_id,
                detail=f"locus annotated with obsolete term {stale}",
            )
        if kind == "dangling_omim":
            phantom = 999000 + rng.randint(1, 999)
            if phantom in entries_by_mim or phantom in record.omim_ids:
                return None
            record.omim_ids.append(phantom)
            return Conflict(
                kind=kind,
                locus_id=record.locus_id,
                detail=f"locus references nonexistent MIM {phantom}",
            )
        raise ConfigurationError(f"unknown conflict kind {kind!r}")

    # -- extras ---------------------------------------------------------------

    def make_citation_store(self, count=200):
        """A PubMed-like store over this corpus's loci (used by the
        plug-in-a-new-source experiment).

        Wiring is bidirectional, like the OMIM links: each generated
        citation lists the loci it annotates, and those locus records
        gain the citation's PMID — through the store's ``remove``/``add``,
        so LocusLink's ``version`` moves with its content.
        """
        rng = DeterministicRng(self.seed).substream("citations")
        citations = CitationGenerator(rng).generate(
            count, self.locuslink.locus_ids()
        )
        for citation in citations:
            for locus_id in citation.locus_ids:
                record = self.locuslink.get(locus_id)
                if record is not None and citation.pmid not in (
                    record.pubmed_ids
                ):
                    pmids = [*record.pubmed_ids, citation.pmid]
                    self.locuslink.remove(locus_id)
                    self.locuslink.add(replace(record, pubmed_ids=pmids))
        return CitationStore(citations)

    def make_protein_store(self, coverage=0.6, uncurated_rate=0.3):
        """A SwissProt-like store over this corpus's loci (the
        model-variety source of the paper's future work)."""
        from repro.sources.swissprotlike.generator import ProteinGenerator
        from repro.sources.swissprotlike.store import ProteinStore

        rng = DeterministicRng(self.seed).substream("proteins")
        records = ProteinGenerator(rng).generate(
            self.locuslink.all_records(),
            coverage=coverage,
            uncurated_rate=uncurated_rate,
        )
        return ProteinStore(records)

    def sources(self):
        """The three default sources in the paper's order."""
        return [self.locuslink, self.go, self.omim]

    def describe(self):
        return (
            f"corpus(seed={self.seed}): "
            f"{self.locuslink.count()} loci, {self.go.count()} GO terms, "
            f"{self.omim.count()} OMIM entries, "
            f"{len(self.ground_truth.conflicts)} injected conflicts"
        )
