"""The LocusLink record store.

A flat-file-backed store keyed by LocusID.  Native capabilities reflect
what a flat-file source can actually do — exact key lookup, field
equality, and grep-style substring search — nothing more, so the
optimizer's pushdown decisions are grounded in real limitations.
"""

from repro.sources.base import DataSource
from repro.sources.locuslink.format import parse_ll_tmpl, write_ll_tmpl


class LocusLinkStore(DataSource):
    """In-memory LL_tmpl-backed store of :class:`LocusRecord`."""

    name = "LocusLink"

    KEY = "locus_id"

    FIELDS = (
        "LocusID",
        "Organism",
        "Symbol",
        "Description",
        "Position",
        "Aliases",
        "GoIDs",
        "OmimIDs",
        "PubmedIDs",
    )

    CAPABILITIES = frozenset(
        {
            ("LocusID", "="),
            ("LocusID", "<"),
            ("LocusID", "<="),
            ("LocusID", ">"),
            ("LocusID", ">="),
            ("Organism", "="),
            ("Symbol", "="),
            ("Symbol", "like"),
            ("Position", "like"),
            ("Description", "contains"),
            ("GoIDs", "="),
            ("OmimIDs", "="),
            ("PubmedIDs", "="),
        }
    )

    #: Fields backed by a version-keyed hash index: the primary key,
    #: the symbol vocabulary, and the three cross-reference fields the
    #: mediator's semijoin and link matching probe by equality.
    INDEXED_FIELDS = (
        "LocusID",
        "Organism",
        "Symbol",
        "GoIDs",
        "OmimIDs",
        "PubmedIDs",
    )

    parse = staticmethod(parse_ll_tmpl)
    write = staticmethod(write_ll_tmpl)

    def locus_ids(self):
        """Every LocusID, in order."""
        return self.keys()
