"""The protein record model of the SwissProt-like source."""

import re
from dataclasses import dataclass

from repro.util.errors import DataFormatError

_ACCESSION = re.compile(r"^[OPQ]\d[A-Z0-9]{3}\d$")


@dataclass
class ProteinRecord:
    """One protein entry.

    Attributes
    ----------
    accession:
        SwissProt-style accession (``P12345``), the primary key.
    protein_name:
        Recommended protein name.
    organism:
        Species name.
    gene_symbol:
        Symbol of the encoding gene (the cross-link to LocusLink).
    locus_id:
        LocusID of the encoding gene when curated (0 = not curated).
    sequence_length:
        Amino-acid count.
    keywords:
        Controlled-vocabulary keywords.
    """

    accession: str
    protein_name: str
    organism: str
    gene_symbol: str = ""
    locus_id: int = 0
    sequence_length: int = 0
    keywords: tuple = ()

    def __post_init__(self):
        self.keywords = tuple(self.keywords)
        if not _ACCESSION.match(self.accession):
            raise DataFormatError(
                f"malformed accession {self.accession!r} "
                "(expected e.g. P12345)"
            )
        if not self.protein_name:
            raise DataFormatError(
                f"protein {self.accession} has an empty name"
            )
        if self.sequence_length < 0:
            raise DataFormatError(
                f"protein {self.accession} has negative length"
            )

    def as_dict(self):
        return {
            "Accession": self.accession,
            "ProteinName": self.protein_name,
            "Organism": self.organism,
            "GeneSymbol": self.gene_symbol,
            "LocusID": self.locus_id,
            "SequenceLength": self.sequence_length,
            "Keywords": self.keywords,
        }
