"""The OMIM record store."""

from repro.sources.base import DataSource
from repro.sources.omim.format import parse_omim_txt, write_omim_txt
from repro.util.errors import DataFormatError


class OmimStore(DataSource):
    """In-memory omim.txt-backed store of :class:`OmimRecord`."""

    name = "OMIM"

    _FIELDS = ("MimNumber", "Title", "GeneSymbols", "Text", "Inheritance")

    _CAPABILITIES = frozenset(
        {
            ("MimNumber", "="),
            ("MimNumber", "<"),
            ("MimNumber", ">"),
            ("Title", "contains"),
            ("Title", "like"),
            ("GeneSymbols", "="),
            ("Text", "contains"),
            ("Inheritance", "="),
        }
    )

    #: Hash-indexed fields: the MIM number (batched link fetches), the
    #: symbol vocabulary (symbol joins), and the inheritance mode.
    _INDEXED_FIELDS = ("MimNumber", "GeneSymbols", "Inheritance")

    def indexed_fields(self):
        return self._INDEXED_FIELDS

    def __init__(self, records=(), index_state=None):
        self._by_mim = {}
        self._by_symbol = {}
        self._version = 0
        for record in records:
            self.add(record)
        self._adopt_or_warn(index_state)

    # -- DataSource contract ----------------------------------------------------

    def fields(self):
        return self._FIELDS

    def capabilities(self):
        return self._CAPABILITIES

    def records(self):
        return [record.as_dict() for _, record in sorted(self._by_mim.items())]

    def count(self):
        return len(self._by_mim)

    @property
    def version(self):
        return self._version

    # -- store operations ----------------------------------------------------------

    def add(self, record):
        """Insert a record; duplicate MIM numbers are rejected."""
        if record.mim_number in self._by_mim:
            raise DataFormatError(
                f"duplicate MIM number {record.mim_number}",
                source_name=self.name,
            )
        self._by_mim[record.mim_number] = record
        for symbol in record.gene_symbols:
            self._by_symbol.setdefault(symbol, []).append(record)
        self._version += 1

    def get(self, mim_number):
        """The record with ``mim_number``, or ``None``."""
        return self._by_mim.get(mim_number)

    def by_gene_symbol(self, symbol):
        """All entries listing ``symbol`` among their gene symbols."""
        return list(self._by_symbol.get(symbol, ()))

    def all_records(self):
        return [self._by_mim[key] for key in sorted(self._by_mim)]

    def mim_numbers(self):
        return sorted(self._by_mim)

    # -- flat-file round trip --------------------------------------------------------

    def dump(self):
        return write_omim_txt(self.all_records())

    @classmethod
    def from_text(cls, text, index_state=None):
        return cls(parse_omim_txt(text), index_state=index_state)
