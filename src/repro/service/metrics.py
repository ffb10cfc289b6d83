"""Service-level metrics, merged with the pipeline's registry.

Two layers back the ``/metrics`` endpoint:

- **service counters** — admission/shedding/outcome accounting owned
  by this module (requests received, sheds, degraded answers, ...),
  kept in a lock-guarded :func:`~repro.util.locks.make_counters`
  mapping so the racecheck harness audits every write;
- **pipeline counters** — the federation's own
  :data:`~repro.trace.metrics.METRICS` registry names, summed from
  each answered result's ``report.counters`` exactly once per result
  object (and, for traced requests, reconcilable against
  :func:`~repro.trace.metrics.counter_totals`).

The snapshot is plain data, JSON-ready for the endpoint.
"""

from __future__ import annotations

import weakref
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
        # Results whose accounting is already folded in; weak, so a
        # result evicted from every cache is not kept alive here.
        self._folded: weakref.WeakSet[Any] = weakref.WeakSet()

    def add(self, name: str, amount: int = 1) -> None:
        """Bump one service counter."""
        with self._lock:
            self._service[name] += amount

    def observe_queue_depth(self, depth: int) -> None:
        """Track the deepest queue observed (a high-watermark gauge)."""
        with self._lock:
            if depth > self._service["queue_high_watermark"]:
                self._service["queue_high_watermark"] = depth

    def observe_result(self, result: Any) -> None:
        """Account one served
        :class:`~repro.mediator.executor.IntegratedResult`.

        The first serving of a result object adds its
        ``report.counters`` to the pipeline section; every later
        serving of the same object — a result-cache replay that did no
        new pipeline work — counts in ``result_cache_hits``.  The
        check and the mark happen under one lock, so a replay that
        races the serving of its miss cannot take the miss's place.
        """
        with self._lock:
            if result in self._folded:
                self._service["result_cache_hits"] += 1
                return
            self._folded.add(result)
            for name, value in result.report.counters.items():
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
