"""Heterogeneous annotation data sources.

The paper experiments with three public annotation sources — LocusLink,
GO, and OMIM (section 4.2) — each with *"their own storage structure
and implementation"* (section 1).  This package reproduces that
heterogeneity with deliberately different substrates:

- :mod:`repro.sources.locuslink` — LL_tmpl-style flat records keyed by
  integer LocusID;
- :mod:`repro.sources.go` — an OBO-style ontology whose terms form a
  rooted DAG per namespace;
- :mod:`repro.sources.omim` — ``*FIELD*``-marked text records keyed by
  MIM number and linked to genes by *symbol* (not id), which is what
  forces semantic reconciliation;
- :mod:`repro.sources.pubmedlike` — a fourth, MEDLINE-flavoured source
  used by the extensibility experiment ("a new annotation data source
  should be plugged in as it comes into existence");
- :mod:`repro.sources.swissprotlike` — a fifth, protein source keyed by
  accession and linked to genes by LocusID and by symbol.

Each store is its declarations on :class:`~repro.sources.base.DataSource`
— name, fields, native capabilities, indexed fields, the key attribute
of its records and its flat-file format — which holds the records by
key and implements the rest once.  :mod:`repro.sources.urls` holds
each source's web-link URL scheme.

:mod:`repro.sources.corpus` builds all of them consistently from one
seed, wiring cross-links and optionally injecting the conflicts the
reconciliation experiment measures.
"""

from repro.sources.base import DataSource, NativeCondition
from repro.sources.corpus import AnnotationCorpus, CorpusParameters

__all__ = [
    "AnnotationCorpus",
    "CorpusParameters",
    "DataSource",
    "NativeCondition",
]
