"""The PubMed-like wrapper — the plug-in source of the extensibility
experiment.

Implementing this class (field specs + web links) is *all* it takes to
federate a new source: the mediator discovers its schema via MDSM and
starts routing queries to it, which ``examples/plug_in_new_source.py``
demonstrates end to end.
"""

from repro.oem.types import OEMType
from repro.sources.urls import url_for
from repro.wrappers.base import Wrapper


class PubmedLikeWrapper(Wrapper):
    """ANNODA-OML view of a
    :class:`~repro.sources.pubmedlike.CitationStore`."""

    entry_label = "Citation"
    key_label = "Pmid"

    _SPECS = {
        "Pmid": ("Pmid", OEMType.INTEGER, False,
                 "PubMed identifier of the citation"),
        "Title": ("Title", OEMType.STRING, False,
                  "article title"),
        "Journal": ("Journal", OEMType.STRING, False,
                    "journal abbreviation"),
        "Year": ("Year", OEMType.INTEGER, False,
                 "publication year"),
        "LocusID": ("LocusIDs", OEMType.INTEGER, True,
                    "loci the article annotates"),
    }

    def field_specs(self):
        return self._SPECS

    def web_links(self, record):
        links = [("Self", url_for("PubMed", record["Pmid"]))]
        for locus_id in record.get("LocusIDs", ()):
            links.append(("LocusLink", url_for("LocusLink", locus_id)))
        return links
