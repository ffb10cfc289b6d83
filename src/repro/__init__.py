"""ANNODA reproduction: federated integration of molecular-biological
annotation data.

This package reproduces the system described in *"ANNODA: Tool for
integrating Molecular-biological Annotation Data"* (Prompramote & Chen,
ICDE 2005 Workshops): an extended Object Exchange Model, the Lorel
query language, wrapped heterogeneous annotation sources (LocusLink,
GO, OMIM), MDSM schema matching via the Hungarian method, a federated
mediator with ANNODA-GML global model, interactive web-link navigation,
and a biological-question interface.

Quickstart::

    from repro import Annoda
    annoda = Annoda.with_default_sources(seed=7)
    answer = annoda.ask(
        "Find LocusLink genes annotated with some GO function "
        "but not associated with some OMIM disease"
    )
"""

__version__ = "1.0.0"

# The facade import is at the bottom of the dependency graph; guard it so
# that partially built checkouts can still import subpackages directly.
try:
    from repro.core import Annoda, AnnodaConfig
except ImportError:  # pragma: no cover - only during partial builds
    Annoda = None
    AnnodaConfig = None

# The stable planning surface: the query type, the optimizer and the
# plan it produces.
try:
    from repro.mediator import (
        GlobalQuery,
        Optimizer,
        OptimizerOptions,
        PhysicalPlan,
    )
except ImportError:  # pragma: no cover - only during partial builds
    GlobalQuery = None
    Optimizer = None
    OptimizerOptions = None
    PhysicalPlan = None

# The service surface: ANNODA as a long-lived, admission-controlled
# HTTP query server (see DESIGN §14).
try:
    from repro.service import (
        AnnodaService,
        ServiceConfig,
        ServiceRequest,
        ServiceResponse,
        serve,
    )
except ImportError:  # pragma: no cover - only during partial builds
    AnnodaService = None
    ServiceConfig = None
    ServiceRequest = None
    ServiceResponse = None
    serve = None

__all__ = [
    "Annoda",
    "AnnodaConfig",
    "AnnodaService",
    "GlobalQuery",
    "Optimizer",
    "OptimizerOptions",
    "PhysicalPlan",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceResponse",
    "serve",
    "__version__",
]
