"""The LocusLink record model.

Mirrors the fields the paper's Figures 2 and 3 show for the LocusLink
fragment (LocusID, Organism, Symbol, Description, Position, Links) plus
the cross-reference fields the integrated query of Figure 5 needs
(GO annotations, OMIM associations, PubMed citations).
"""

from dataclasses import dataclass

from repro.util.errors import DataFormatError


@dataclass
class LocusRecord:
    """One gene locus.

    Attributes
    ----------
    locus_id:
        The integer LocusID, the source's primary key.
    organism:
        Species name as LocusLink spells it (e.g. ``Homo sapiens``).
    symbol:
        Official gene symbol.
    description:
        Free-text official gene name / description.
    position:
        Cytogenetic map position (e.g. ``19q13.32``), may be empty.
    aliases:
        Alternate symbols.
    go_ids:
        GO term accessions annotating this locus (``GO:0003700``).
    omim_ids:
        MIM numbers of associated disease entries.
    pubmed_ids:
        Supporting citation PMIDs.
    """

    locus_id: int
    organism: str
    symbol: str
    description: str = ""
    position: str = ""
    aliases: tuple = ()
    go_ids: tuple = ()
    omim_ids: tuple = ()
    pubmed_ids: tuple = ()

    def __post_init__(self):
        for name in ("aliases", "go_ids", "omim_ids", "pubmed_ids"):
            setattr(self, name, tuple(getattr(self, name)))
        if not isinstance(self.locus_id, int) or self.locus_id < 1:
            raise DataFormatError(
                f"LocusID must be a positive integer, got {self.locus_id!r}"
            )
        if not self.symbol:
            raise DataFormatError(
                f"locus {self.locus_id} has an empty symbol"
            )
        if not self.organism:
            raise DataFormatError(
                f"locus {self.locus_id} has an empty organism"
            )

    def as_dict(self):
        """Plain-dict view used by the :class:`~repro.sources.base.DataSource`
        contract; its multi-valued fields are the record's own tuples."""
        return {
            "LocusID": self.locus_id,
            "Organism": self.organism,
            "Symbol": self.symbol,
            "Description": self.description,
            "Position": self.position,
            "Aliases": self.aliases,
            "GoIDs": self.go_ids,
            "OmimIDs": self.omim_ids,
            "PubmedIDs": self.pubmed_ids,
        }
