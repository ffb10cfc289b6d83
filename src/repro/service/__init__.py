"""ANNODA as a long-lived, admission-controlled query service.

The transport-independent core (:class:`AnnodaService`) admits each
request through one gate (a bounded number run at once, a bounded
number wait for a seat, the rest are shed) and answers it on the
calling thread, with a per-request deadline budget; the stdlib HTTP
shell (:func:`serve` / :class:`AnnodaHTTPServer`) exposes it as
``POST /query`` plus ``/questions``, ``/metrics``, ``/requests`` and
``/healthz``.  See DESIGN §14.
"""

from repro.service.metrics import SERVICE_COUNTERS, ServiceMetrics
from repro.service.requestlog import RequestLog, log_record_shape
from repro.service.server import (
    AnnodaHTTPServer,
    AnnodaService,
    ServiceConfig,
    serve,
)
from repro.service.types import (
    BadRequest,
    ServiceRequest,
    ServiceResponse,
)

__all__ = [
    "AnnodaHTTPServer",
    "AnnodaService",
    "BadRequest",
    "RequestLog",
    "SERVICE_COUNTERS",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceRequest",
    "ServiceResponse",
    "log_record_shape",
    "serve",
]
