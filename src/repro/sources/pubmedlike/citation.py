"""The citation record model of the PubMed-like source."""

from dataclasses import dataclass

from repro.util.errors import DataFormatError


@dataclass
class Citation:
    """One literature citation.

    Attributes
    ----------
    pmid:
        PubMed identifier, the source's primary key.
    title:
        Article title.
    journal:
        Journal abbreviation.
    year:
        Publication year.
    locus_ids:
        LocusIDs the article annotates (the cross-link back to
        LocusLink).
    """

    pmid: int
    title: str
    journal: str
    year: int
    locus_ids: tuple = ()

    def __post_init__(self):
        self.locus_ids = tuple(self.locus_ids)
        if not isinstance(self.pmid, int) or self.pmid < 1:
            raise DataFormatError(f"PMID must be positive, got {self.pmid!r}")
        if not self.title:
            raise DataFormatError(f"citation {self.pmid} has an empty title")
        if not (1950 <= self.year <= 2010):
            raise DataFormatError(
                f"citation {self.pmid} year {self.year} outside 1950-2010"
            )

    def as_dict(self):
        return {
            "Pmid": self.pmid,
            "Title": self.title,
            "Journal": self.journal,
            "Year": self.year,
            "LocusIDs": self.locus_ids,
        }
