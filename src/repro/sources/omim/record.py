"""The OMIM record model."""

from dataclasses import dataclass

from repro.util.errors import DataFormatError


@dataclass
class OmimRecord:
    """One OMIM disease/phenotype entry.

    Attributes
    ----------
    mim_number:
        Six-digit MIM number, the source's primary key.
    title:
        Entry title (disease name).
    gene_symbols:
        Symbols of associated genes (OMIM's GS field) — note these are
        symbols, not LocusIDs; joining them to LocusLink is the
        mediator's job.
    text:
        Free-text entry body.
    inheritance:
        Inheritance mode (``autosomal dominant`` etc.), may be empty.
    """

    mim_number: int
    title: str
    gene_symbols: tuple = ()
    text: str = ""
    inheritance: str = ""

    def __post_init__(self):
        self.gene_symbols = tuple(self.gene_symbols)
        if not isinstance(self.mim_number, int) or not (
            100000 <= self.mim_number <= 999999
        ):
            raise DataFormatError(
                f"MIM number must be six digits, got {self.mim_number!r}"
            )
        if not self.title:
            raise DataFormatError(
                f"entry {self.mim_number} has an empty title"
            )

    def as_dict(self):
        return {
            "MimNumber": self.mim_number,
            "Title": self.title,
            "GeneSymbols": self.gene_symbols,
            "Text": self.text,
            "Inheritance": self.inheritance,
        }
