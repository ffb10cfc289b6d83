"""The OMIM record store."""

from repro.sources.base import DataSource
from repro.sources.omim.format import parse_omim_txt, write_omim_txt


class OmimStore(DataSource):
    """In-memory omim.txt-backed store of :class:`OmimRecord`."""

    name = "OMIM"

    KEY = "mim_number"

    FIELDS = ("MimNumber", "Title", "GeneSymbols", "Text", "Inheritance")

    CAPABILITIES = frozenset(
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
    INDEXED_FIELDS = ("MimNumber", "GeneSymbols", "Inheritance")

    parse = staticmethod(parse_omim_txt)
    write = staticmethod(write_omim_txt)
