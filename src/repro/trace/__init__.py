"""The query flight recorder (DESIGN §11).

Hierarchical, query-scoped trace spans over the whole mediator
pipeline — decompose → optimize → per-source fetch → reconcile →
navigate — with per-span attributes and counters that reconcile with
:class:`~repro.mediator.executor.ExecutionReport`.  Tracing is off by
default (the :data:`NULL_RECORDER` makes every instrumentation point a
no-op); pass a :class:`TraceRecorder` to
:meth:`repro.core.annoda.Annoda.ask` (or run the CLI ``explain``
command) to get :attr:`IntegratedResult.trace`.
"""

from repro.trace.export import (
    render_trace,
    trace_shape,
    trace_to_dict,
    trace_to_json,
)
from repro.trace.metrics import METRICS, Metric, MetricsRegistry, counter_totals
from repro.trace.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    Span,
    TraceError,
    TraceRecorder,
)

__all__ = [
    "METRICS",
    "Metric",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_SPAN",
    "NullRecorder",
    "Span",
    "TraceError",
    "TraceRecorder",
    "counter_totals",
    "render_trace",
    "trace_shape",
    "trace_to_dict",
    "trace_to_json",
]
