"""The OMIM wrapper."""

from repro.oem.types import OEMType
from repro.sources.urls import url_for
from repro.wrappers.base import Wrapper


class OmimWrapper(Wrapper):
    """ANNODA-OML view of an :class:`~repro.sources.omim.OmimStore`.

    OMIM links to genes by symbol: the source's ``GeneSymbols``
    equality index answers the exact, source-level lookup, while
    reconciling case and alias variants is mediator work.
    :meth:`exists` is what the reconciler's MIM-number validation
    asks.
    """

    entry_label = "Disease"
    key_label = "MimNumber"

    _SPECS = {
        "MimNumber": ("MimNumber", OEMType.INTEGER, False,
                      "six-digit MIM number of the entry"),
        "Title": ("Title", OEMType.STRING, False,
                  "disease / phenotype title"),
        "GeneSymbol": ("GeneSymbols", OEMType.STRING, True,
                       "symbols of associated genes"),
        "Text": ("Text", OEMType.STRING, False,
                 "free-text entry body"),
        "Inheritance": ("Inheritance", OEMType.STRING, False,
                        "mode of inheritance"),
    }

    def field_specs(self):
        return self._SPECS

    def web_links(self, record):
        return [("Self", url_for("OMIM", record["MimNumber"]))]

    def exists(self, mim_number):
        return self.source.get(mim_number) is not None
