"""The Gene Ontology wrapper."""

from repro.oem.types import OEMType
from repro.sources.urls import url_for
from repro.wrappers.base import Wrapper


class GoWrapper(Wrapper):
    """ANNODA-OML view of a :class:`~repro.sources.go.GoOntology`.

    Beyond plain entry fetching, exposes the graph queries the
    mediator's GO-aware predicates need (ancestor closure), since the
    raw flat file cannot answer them natively.
    """

    entry_label = "Term"
    key_label = "GoID"

    _SPECS = {
        "GoID": ("GoID", OEMType.STRING, False,
                 "GO accession of the term"),
        "Name": ("Name", OEMType.STRING, False,
                 "term name describing the function/process/component"),
        "Namespace": ("Namespace", OEMType.STRING, False,
                      "GO aspect branch"),
        "Definition": ("Definition", OEMType.STRING, False,
                       "free-text definition"),
        "IsA": ("IsA", OEMType.STRING, True,
                "parent term accessions"),
        "Synonym": ("Synonyms", OEMType.STRING, True,
                    "alternate term names"),
        "Obsolete": ("Obsolete", OEMType.BOOLEAN, False,
                     "whether the term is obsolete"),
    }

    def field_specs(self):
        return self._SPECS

    def web_links(self, record):
        links = [("Self", url_for("GO", record["GoID"]))]
        for parent in record.get("IsA", ()):
            links.append(("Parent", url_for("GO", parent)))
        return links

    # -- graph-aware helpers (mediator-side evaluation) ------------------------

    def ancestors(self, go_id):
        """Transitive ancestors of a term (evaluated at the wrapper —
        the flat source has no native closure capability)."""
        return self.source.ancestors(go_id)

    def descendants(self, go_id):
        return self.source.descendants(go_id)

    def is_obsolete(self, go_id):
        term = self.source.get(go_id)
        return term is not None and term.obsolete

    def exists(self, go_id):
        return self.source.get(go_id) is not None
