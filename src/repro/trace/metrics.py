"""The metrics registry: every span counter, declared in one place.

Each counter a span may carry is registered here with the pipeline
stage (span name) that owns it and a one-line meaning.  The registry
is the contract the ANN005 lint extension enforces: a counter
registered here but never attached to a span (via ``incr`` /
``set_counter``) is a lint error — declared-but-dead accounting rots
silently otherwise.

The registered names deliberately mirror
:class:`~repro.mediator.executor.ExecutionStats`: every stats counter
becomes an attribute of exactly the span that incremented it, so
:func:`counter_totals` over a trace reconciles with the flat report
(a property test pins the equality down for random corpora/queries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Metric:
    """One declared span counter."""

    name: str
    stage: str
    description: str = ""


class MetricsRegistry:
    """Ordered, duplicate-rejecting registry of span counters."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def register(self, name: str, stage: str,
                 description: str = "") -> Metric:
        """Declare one counter owned by the ``stage`` span."""
        if name in self._metrics:
            raise ValueError(f"metric {name!r} is already registered")
        metric = Metric(name=name, stage=stage, description=description)
        self._metrics[name] = metric
        return metric

    def names(self) -> List[str]:
        return list(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def stage_of(self, name: str) -> Optional[str]:
        metric = self._metrics.get(name)
        return metric.stage if metric is not None else None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def render(self) -> str:
        """One line per metric, for docs and the CLI."""
        lines = []
        for metric in self:
            lines.append(
                f"{metric.name} [{metric.stage}] {metric.description}"
            )
        return "\n".join(lines)


#: The federation's metrics registry.  Stage names match the span
#: names the instrumented pipeline opens (see DESIGN §11).
METRICS = MetricsRegistry()

METRICS.register(
    "rows", stage="fetch-request",
    description="records one FetchReply returned",
)
METRICS.register(
    "attempts", stage="fetch-request",
    description="timed tries this fetch made (first + retries)",
)
METRICS.register(
    "retries", stage="fetch-request",
    description="attempts beyond the first (spent retry budget)",
)
METRICS.register(
    "timeouts", stage="fetch-request",
    description="attempts abandoned on timeout",
)
METRICS.register(
    "residual_evaluations", stage="fetch",
    description="mediator-side residual predicate evaluations",
)
METRICS.register(
    "concurrent_batches", stage="fetch",
    description="independent fetch batches issued concurrently",
)
METRICS.register(
    "batched_fetches", stage="fetch",
    description="batched `in` fetches issued instead of per-id loops",
)
METRICS.register(
    "enrichment_cache_hits", stage="enrichment",
    description="link-source detail served from the version-keyed cache",
)
METRICS.register(
    "anchors_considered", stage="reconcile",
    description="anchor records entering link matching",
)
METRICS.register(
    "anchors_returned", stage="reconcile",
    description="anchor records surviving every link constraint",
)
METRICS.register(
    "conflicts", stage="reconcile",
    description="semantic conflicts the reconciler observed",
)
METRICS.register(
    "repaired", stage="reconcile",
    description="conflicts the reconciliation policy repaired",
)
METRICS.register(
    "index_hits", stage="execute",
    description="native queries answered from an equality index",
)
METRICS.register(
    "scan_fetches", stage="execute",
    description="native queries answered by scanning an extent",
)
METRICS.register(
    "indexes_rebuilt", stage="execute",
    description="equality indexes (re)built by scanning this execution",
)
METRICS.register(
    "indexes_adopted", stage="execute",
    description="equality indexes adopted from a persisted snapshot",
)
METRICS.register(
    "shard_fans", stage="execute",
    description="logical fetches the stage scheduler fanned out "
                "across a shard grid",
)
METRICS.register(
    "replica_failovers", stage="execute",
    description="fetches a replica set answered from a sibling after "
                "the placed replica failed",
)


def counter_totals(root: Any) -> Dict[str, int]:
    """Sum every counter over a span tree (name -> total).

    Because each :class:`~repro.mediator.executor.ExecutionStats`
    counter is attached to exactly one owning span (incremented where
    the stats were), these totals reconcile with the execution report.
    """
    totals: Dict[str, int] = {}
    if root is None:
        return totals
    for span in root.walk():
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals
