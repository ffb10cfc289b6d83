"""Service-level metrics, merged with the pipeline's registry.

Two layers back the ``/metrics`` endpoint:

- **service counters** — admission/shedding/outcome accounting owned
  by this module (requests received, sheds, degraded answers, ...),
  kept in a lock-guarded :func:`~repro.util.locks.make_counters`
  mapping so the racecheck harness audits every write;
- **pipeline counters** — the federation's own
  :data:`~repro.trace.metrics.METRICS` registry names, accumulated
  from each answered request's
  :class:`~repro.mediator.executor.ExecutionStats` (and, for traced
  requests, reconcilable against
  :func:`~repro.trace.metrics.counter_totals`).

The snapshot is plain data, JSON-ready for the endpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.trace.metrics import METRICS
from repro.util.locks import make_counters, new_lock

#: Service-owned counter names (the admission/outcome accounting).
SERVICE_COUNTERS = (
    "requests_received",
    "requests_admitted",
    "requests_shed",
    "requests_completed",
    "requests_ok",
    "requests_degraded",
    "requests_failed",
    "requests_rejected",
    "deadline_expired",
    "result_cache_hits",
    "queue_high_watermark",
)


def execution_counters(stats: Any,
                       reconciliation: Any = None) -> Dict[str, int]:
    """One answered request's value for every registered counter.

    ``stats`` is the result's
    :class:`~repro.mediator.executor.ExecutionStats`.  Each
    :data:`~repro.trace.metrics.METRICS` name is read from the
    same-named stats field, so the endpoint's pipeline section reads
    exactly like a summed trace and a newly registered counter reaches
    ``/metrics`` without an edit here.  Only the four names without a
    flat stats field are derived: ``rows`` and ``attempts`` from the
    per-source reports, ``conflicts`` and ``repaired`` from the
    reconciliation report.
    """
    derived = {
        "rows": stats.total_rows_fetched(),
        "attempts": sum(
            report.attempts for report in stats.source_reports.values()
        ),
        "conflicts": (
            0 if reconciliation is None else reconciliation.count()
        ),
        "repaired": (
            0 if reconciliation is None
            else reconciliation.repaired_count()
        ),
    }
    return {
        name: derived[name] if name in derived else getattr(stats, name)
        for name in METRICS.names()
    }


class ServiceMetrics:
    """Thread-safe accounting behind the ``/metrics`` endpoint."""

    def __init__(self) -> None:
        self._lock = new_lock("ServiceMetrics._lock")
        self._service = make_counters(
            {name: 0 for name in SERVICE_COUNTERS},
            self._lock,
            "ServiceMetrics._lock",
        )
        self._pipeline = make_counters(
            {name: 0 for name in METRICS.names()},
            self._lock,
            "ServiceMetrics._lock",
        )

    def add(self, name: str, amount: int = 1) -> None:
        """Bump one service counter."""
        with self._lock:
            self._service[name] += amount

    def observe_queue_depth(self, depth: int) -> None:
        """Track the deepest queue observed (a high-watermark gauge)."""
        with self._lock:
            if depth > self._service["queue_high_watermark"]:
                self._service["queue_high_watermark"] = depth

    def merge_execution(self, stats: Any,
                        reconciliation: Any = None) -> None:
        """Fold one answered request's pipeline accounting in (see
        :func:`execution_counters`)."""
        merged = execution_counters(stats, reconciliation)
        with self._lock:
            for name, value in merged.items():
                self._pipeline[name] += value

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A point-in-time copy: ``{"service": ..., "pipeline": ...}``."""
        with self._lock:
            return {
                "service": dict(self._service),
                "pipeline": dict(self._pipeline),
            }

    def value(self, name: str, section: str = "service") -> Optional[int]:
        with self._lock:
            table = self._service if section == "service" else self._pipeline
            return table.get(name)

    def render(self) -> str:
        """The endpoint's text form: ``section.name value`` lines plus
        each pipeline counter's registered description."""
        snapshot = self.snapshot()
        lines = []
        for name in SERVICE_COUNTERS:
            lines.append(f"service.{name} {snapshot['service'][name]}")
        for metric in METRICS:
            lines.append(
                f"pipeline.{metric.name} "
                f"{snapshot['pipeline'][metric.name]}"
            )
        return "\n".join(lines)
