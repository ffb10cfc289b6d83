"""Whole-program flow analysis for the federation (DESIGN §15).

Where :mod:`repro.tools.lint` pattern-matches one file at a time, this
package parses the whole project into a symbol table and approximate
call graph (:mod:`repro.tools.flow.graph`) and checks the invariants
that only exist *between* modules: budget threading from the service
front-end to the wrapper boundary (ANN007), construction-seam bypasses
(ANN008), lock-guard consistency (ANN009) and span exception safety
(ANN010).  Importing this package registers the rules in the shared
lint registry, so codes, ``--select`` and ``noqa`` suppressions
compose across both tools.
"""

from repro.tools.flow import rules as _rules  # noqa: F401  (registers rules)
from repro.tools.flow.graph import (
    CallSite,
    ClassInfo,
    ExternalCall,
    FlowProject,
    FunctionInfo,
)
from repro.tools.flow.runner import (
    analyze_paths,
    analyze_texts,
    interprocedural_codes,
)

__all__ = [
    "CallSite",
    "ClassInfo",
    "ExternalCall",
    "FlowProject",
    "FunctionInfo",
    "analyze_paths",
    "analyze_texts",
    "interprocedural_codes",
]
