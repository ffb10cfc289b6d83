"""The SwissProt-like wrapper — the model-variety source of the
paper's future work.

Proteins link to genes two ways: a curated LocusID cross-reference
(DR line) when available, and the gene symbol otherwise — so queries
through this source exercise both id joins and reconciled symbol
joins.
"""

from repro.oem.types import OEMType
from repro.sources.urls import url_for
from repro.wrappers.base import Wrapper


class SwissProtLikeWrapper(Wrapper):
    """ANNODA-OML view of a
    :class:`~repro.sources.swissprotlike.ProteinStore`."""

    entry_label = "Protein"
    key_label = "Accession"

    _SPECS = {
        "Accession": ("Accession", OEMType.STRING, False,
                      "protein accession, the primary key"),
        "ProteinName": ("ProteinName", OEMType.STRING, False,
                        "recommended protein name"),
        "Organism": ("Organism", OEMType.STRING, False,
                     "species of the protein"),
        "GeneSymbol": ("GeneSymbol", OEMType.STRING, False,
                       "symbol of the encoding gene"),
        "LocusID": ("LocusID", OEMType.INTEGER, False,
                    "curated LocusLink cross-reference (0 = none)"),
        "SequenceLength": ("SequenceLength", OEMType.INTEGER, False,
                           "amino-acid count"),
        "Keyword": ("Keywords", OEMType.STRING, True,
                    "controlled-vocabulary keywords"),
    }

    def field_specs(self):
        return self._SPECS

    def web_links(self, record):
        links = [("Self", url_for("SwissProt", record["Accession"]))]
        if record.get("LocusID"):
            links.append(
                ("LocusLink", url_for("LocusLink", record["LocusID"]))
            )
        return links
