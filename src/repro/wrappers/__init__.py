"""Wrappers: per-source translators into ANNODA-OML.

Figure 1 of the paper places one *Wrapper* under each annotation
source.  A wrapper translates its source's records into the common
local model (ANNODA-OML, expressed in OEM — section 3.2.2), advertises
which predicates the source can evaluate natively (the optimizer's
pushdown decisions depend on this), and exposes the source's schema
elements for the mapping module to match.
"""

from repro.wrappers.base import Wrapper
from repro.wrappers.go import GoWrapper
from repro.wrappers.locuslink import LocusLinkWrapper
from repro.wrappers.omim import OmimWrapper
from repro.wrappers.pubmedlike import PubmedLikeWrapper
from repro.wrappers.schema import SchemaElement
from repro.wrappers.swissprotlike import SwissProtLikeWrapper

__all__ = [
    "GoWrapper",
    "LocusLinkWrapper",
    "OmimWrapper",
    "PubmedLikeWrapper",
    "SchemaElement",
    "SwissProtLikeWrapper",
    "Wrapper",
]


def default_wrappers(corpus):
    """The paper's three wrappers over a generated corpus."""
    return [
        LocusLinkWrapper(corpus.locuslink),
        GoWrapper(corpus.go),
        OmimWrapper(corpus.omim),
    ]
