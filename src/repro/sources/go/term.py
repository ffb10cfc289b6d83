"""The GO term model."""

import re
from dataclasses import dataclass

from repro.util.errors import DataFormatError

#: The three GO namespaces (aspect branches).
NAMESPACES = (
    "molecular_function",
    "biological_process",
    "cellular_component",
)

_GO_ID = re.compile(r"^GO:\d{7}$")


@dataclass
class GoTerm:
    """One Gene Ontology term.

    Attributes
    ----------
    go_id:
        Accession of the form ``GO:0003700``.
    name:
        Human-readable term name.
    namespace:
        One of :data:`NAMESPACES`.
    definition:
        Free-text definition.
    is_a:
        Parent term accessions (empty only for namespace roots).
    synonyms:
        Alternate names.
    obsolete:
        Obsolete terms stay in the file but carry no annotations.
    """

    go_id: str
    name: str
    namespace: str
    definition: str = ""
    is_a: tuple = ()
    synonyms: tuple = ()
    obsolete: bool = False

    def __post_init__(self):
        self.is_a, self.synonyms = tuple(self.is_a), tuple(self.synonyms)
        if not _GO_ID.match(self.go_id):
            raise DataFormatError(
                f"malformed GO accession {self.go_id!r} "
                "(expected GO: + 7 digits)"
            )
        if self.namespace not in NAMESPACES:
            raise DataFormatError(
                f"unknown GO namespace {self.namespace!r} for {self.go_id}"
            )
        if not self.name:
            raise DataFormatError(f"term {self.go_id} has an empty name")

    @property
    def is_root(self):
        return not self.is_a

    def as_dict(self):
        """Plain-dict view for the :class:`~repro.sources.base.DataSource`
        contract; its multi-valued fields are the term's own tuples."""
        return {
            "GoID": self.go_id,
            "Name": self.name,
            "Namespace": self.namespace,
            "Definition": self.definition,
            "IsA": self.is_a,
            "Synonyms": self.synonyms,
            "Obsolete": self.obsolete,
        }


def make_go_id(number):
    """Format an integer as a GO accession (``42`` -> ``GO:0000042``)."""
    if number < 0 or number > 9999999:
        raise DataFormatError(f"GO id number out of range: {number}")
    return f"GO:{number:07d}"
