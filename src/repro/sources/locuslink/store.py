"""The LocusLink record store.

A flat-file-backed store: records are held in LocusID order, indexed by
LocusID and symbol.  Native capabilities reflect what a flat-file
source can actually do — exact key lookup, field equality, and grep-
style substring search — nothing more, so the optimizer's pushdown
decisions are grounded in real limitations.
"""

from repro.sources.base import DataSource
from repro.sources.locuslink.format import parse_ll_tmpl, write_ll_tmpl
from repro.util.errors import DataFormatError


class LocusLinkStore(DataSource):
    """In-memory LL_tmpl-backed store of :class:`LocusRecord`."""

    name = "LocusLink"

    _FIELDS = (
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

    _CAPABILITIES = frozenset(
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
    _INDEXED_FIELDS = (
        "LocusID",
        "Organism",
        "Symbol",
        "GoIDs",
        "OmimIDs",
        "PubmedIDs",
    )

    def indexed_fields(self):
        return self._INDEXED_FIELDS

    def __init__(self, records=(), index_state=None):
        self._by_id = {}
        self._by_symbol = {}
        self._version = 0
        for record in records:
            self.add(record)
        self._adopt_or_warn(index_state)

    # -- DataSource contract -------------------------------------------------

    def fields(self):
        return self._FIELDS

    def capabilities(self):
        return self._CAPABILITIES

    def records(self):
        return [record.as_dict() for _, record in sorted(self._by_id.items())]

    def count(self):
        return len(self._by_id)

    @property
    def version(self):
        return self._version

    # -- store operations -----------------------------------------------------

    def add(self, record):
        """Insert a record; duplicate LocusIDs are rejected."""
        if record.locus_id in self._by_id:
            raise DataFormatError(
                f"duplicate LocusID {record.locus_id}", source_name=self.name
            )
        self._by_id[record.locus_id] = record
        self._by_symbol.setdefault(record.symbol, []).append(record)
        self._version += 1

    def remove(self, locus_id):
        """Delete a record by LocusID."""
        record = self._by_id.pop(locus_id, None)
        if record is None:
            raise DataFormatError(
                f"no locus {locus_id} to remove", source_name=self.name
            )
        self._by_symbol[record.symbol].remove(record)
        if not self._by_symbol[record.symbol]:
            del self._by_symbol[record.symbol]
        self._version += 1

    def get(self, locus_id):
        """The record with ``locus_id``, or ``None``."""
        return self._by_id.get(locus_id)

    def by_symbol(self, symbol):
        """All records carrying ``symbol`` as their official symbol."""
        return list(self._by_symbol.get(symbol, ()))

    def all_records(self):
        """All :class:`LocusRecord` objects in LocusID order."""
        return [self._by_id[key] for key in sorted(self._by_id)]

    def locus_ids(self):
        return sorted(self._by_id)

    # -- flat-file round trip ---------------------------------------------------

    def dump(self):
        """The store's content as LL_tmpl text."""
        return write_ll_tmpl(self.all_records())

    @classmethod
    def from_text(cls, text, index_state=None):
        """Build a store by parsing LL_tmpl text; ``index_state`` (a
        matching :meth:`~repro.sources.base.DataSource.export_index_state`
        snapshot) skips the cold-start index rebuild."""
        return cls(parse_ll_tmpl(text), index_state=index_state)
