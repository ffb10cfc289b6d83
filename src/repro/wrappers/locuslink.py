"""The LocusLink wrapper (Figures 2 and 3 of the paper)."""

from repro.oem.types import OEMType
from repro.sources.urls import url_for
from repro.wrappers.base import Wrapper


class LocusLinkWrapper(Wrapper):
    """ANNODA-OML view of a :class:`~repro.sources.locuslink.LocusLinkStore`.

    One entry reproduces the Figure-3 fragment: LocusID, Organism,
    Symbol, Description, Position (+ multivalued annotation fields) and
    a ``Links`` object whose ``Url`` children drive navigation.
    """

    entry_label = "Locus"
    key_label = "LocusID"

    _SPECS = {
        "LocusID": ("LocusID", OEMType.INTEGER, False,
                    "unique integer identifier of the locus"),
        "Organism": ("Organism", OEMType.STRING, False,
                     "species the locus belongs to"),
        "Symbol": ("Symbol", OEMType.STRING, False,
                   "official gene symbol"),
        "Description": ("Description", OEMType.STRING, False,
                        "official gene name / description"),
        "Position": ("Position", OEMType.STRING, False,
                     "cytogenetic map position"),
        "Alias": ("Aliases", OEMType.STRING, True,
                  "alternate gene symbols"),
        "GoID": ("GoIDs", OEMType.STRING, True,
                 "GO terms annotating the locus"),
        "OmimID": ("OmimIDs", OEMType.INTEGER, True,
                   "MIM numbers of associated disease entries"),
        "PubmedID": ("PubmedIDs", OEMType.INTEGER, True,
                     "supporting citation identifiers"),
    }

    def field_specs(self):
        return self._SPECS

    def web_links(self, record):
        links = [("Self", url_for("LocusLink", record["LocusID"]))]
        for source, field in (
            ("GO", "GoIDs"), ("OMIM", "OmimIDs"), ("PubMed", "PubmedIDs")
        ):
            for target_id in record.get(field, ()):
                links.append((source, url_for(source, target_id)))
        return links
