"""The metrics registry: every execution counter, declared in one place.

Each counter is registered here with the pipeline stages (span names)
that carry it and a one-line meaning.  The registry is the only list
of counters: :class:`~repro.mediator.executor.ExecutionReport` builds
its ``counters`` table from :meth:`MetricsRegistry.names`, a stage
span carries what its stage moved of the counters registered to it
(:meth:`MetricsRegistry.carried_by`), and ``/metrics`` sums the
reports' tables.  So :func:`counter_totals` over a trace reconciles
with the report (a property test pins the equality down for random
corpora and queries).

The registry is also the contract the ANN005 lint rule enforces: a
counter registered here but never counted (``incr`` /
``set_counter``) is a lint error, and so is counting an unregistered
name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union


@dataclass(frozen=True)
class Metric:
    """One declared counter and the stage spans that carry it."""

    name: str
    stages: Tuple[str, ...]
    description: str = ""


class MetricsRegistry:
    """Ordered, duplicate-rejecting registry of counters."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def register(self, name: str, stage: Union[str, Tuple[str, ...]],
                 description: str = "") -> Metric:
        """Declare one counter carried by the ``stage`` span (one span
        name, or a tuple of them)."""
        if name in self._metrics:
            raise ValueError(f"metric {name!r} is already registered")
        stages = (stage,) if isinstance(stage, str) else tuple(stage)
        metric = Metric(name=name, stages=stages, description=description)
        self._metrics[name] = metric
        return metric

    def names(self) -> List[str]:
        return list(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def carried_by(self, stage: str) -> List[str]:
        """The counters the ``stage`` span carries, in registry order."""
        return [
            metric.name for metric in self if stage in metric.stages
        ]

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
                f"{metric.name} [{', '.join(metric.stages)}] "
                f"{metric.description}"
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
    "residual_evaluations", stage=("fetch", "anchor"),
    description="mediator-side residual predicate evaluations",
)
METRICS.register(
    "concurrent_batches", stage=("fetch", "enrichment"),
    description="independent fetch batches issued concurrently",
)
METRICS.register(
    "batched_fetches", stage=("anchor", "enrichment"),
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
    "replica_failovers", stage="execute",
    description="fetches a replica set answered from a sibling after "
                "a replica failed",
)


def counter_totals(root: Any) -> Dict[str, int]:
    """Sum every counter over a span tree (name -> total).

    Each counter an execution moves is carried by the spans of the
    stages that moved it, never by two nested spans, so these totals
    reconcile with the execution report's ``counters``.
    """
    totals: Dict[str, int] = {}
    if root is None:
        return totals
    for span in root.walk():
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals
