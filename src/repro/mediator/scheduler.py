"""The stage scheduler: place physical-plan fetches on a (shard,
replica) grid.

Every :class:`~repro.mediator.plan.FetchStage` the executor runs is a
*logical* fetch against one source.  When that source is sharded
(:class:`~repro.sources.shard.ShardedSource` behind the wrapper) the
scheduler expands the logical request into one shard-pinned request
per partition — all shipped through the existing
:class:`~repro.mediator.fetch.FederatedFetcher` pool, so the fan-out
inherits its concurrency, retry and deterministic job-order
semantics — and merges the shard partials back into one reply (record
tuples concatenate in shard order).  Replica placement happens below,
inside
:class:`~repro.mediator.replicas.ReplicaSet`: the scheduler pins the
shard, the replica set maps ``shard_index % replica_count`` onto a
replica and fails over to siblings, and only when every replica
refused does the merged reply fail — at which point the
:class:`~repro.mediator.fetch.FederationPolicy` decides between
degrade and abort, exactly as for an unsharded source.

Failure composition order (innermost first):
``replica failover → per-request retries → shard merge → policy``.

Placement is also the ``explain`` story: :meth:`StageScheduler.plan_grid`
renders one :class:`StagePlacement` per stage, and the executor traces
the same grid as the ``schedule:place`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Sequence

from repro.mediator.fetch import FetchReply, FetchRequest


@dataclass(frozen=True)
class StagePlacement:
    """Where one plan stage's fetch lands on the federation grid."""

    purpose: str
    source: str
    shards: int
    replicas: int

    def describe(self) -> str:
        return (
            f"{self.purpose}@{self.source}: "
            f"{self.shards} shard(s) x {self.replicas} replica(s)"
        )


class StageScheduler:
    """Shard fan-out and shard-partial merge for plan stages.

    Stateless: the grid is read off the registered wrappers (their
    ``shard_count`` / ``replica_count`` duck-typed attributes) at
    placement time, so registration changes are always reflected.
    """

    @staticmethod
    def shard_count(wrapper: Any) -> int:
        count = getattr(wrapper, "shard_count", 1)
        try:
            return max(1, int(count))
        except (TypeError, ValueError):
            return 1

    @staticmethod
    def replica_count(wrapper: Any) -> int:
        count = getattr(wrapper, "replica_count", 1)
        try:
            return max(1, int(count))
        except (TypeError, ValueError):
            return 1

    # -- placement ------------------------------------------------------------

    def placement(self, purpose: str, wrapper: Any) -> StagePlacement:
        return StagePlacement(
            purpose=purpose,
            source=wrapper.name,
            shards=self.shard_count(wrapper),
            replicas=self.replica_count(wrapper),
        )

    def plan_grid(self, plan: Any, wrappers: Any) -> List[StagePlacement]:
        """One placement per plan stage (anchor first, then the link
        steps in plan order)."""
        grid = [
            self.placement(
                plan.anchor.purpose, wrappers[plan.anchor.source_name]
            )
        ]
        for step in plan.link_steps:
            grid.append(
                self.placement(step.purpose, wrappers[step.source_name])
            )
        return grid

    def describe_grid(self, plan: Any, wrappers: Any) -> str:
        """The placement as ``explain`` text."""
        lines = ["stage placement:"]
        for entry in self.plan_grid(plan, wrappers):
            lines.append(f"  {entry.describe()}")
        return "\n".join(lines)

    # -- fan-out --------------------------------------------------------------

    def expand(
        self, wrapper: Any, request: FetchRequest
    ) -> List[FetchRequest]:
        """The physical requests one logical request fans out into:
        one shard-pinned request per partition of a sharded source,
        the request itself otherwise (already-pinned requests pass
        through untouched)."""
        count = self.shard_count(wrapper)
        if count <= 1 or request.shard is not None:
            return [request]
        return [
            replace(request, shard=(index, count))
            for index in range(count)
        ]

    # -- merge ----------------------------------------------------------------

    def merge(
        self,
        source: str,
        request: FetchRequest,
        parts: Sequence[FetchReply],
    ) -> FetchReply:
        """Shard partials -> one logical reply.

        Records concatenate in shard order, which reproduces the
        unsharded record order exactly (shards are contiguous ranges
        of the canonical extent order).  Any failed shard fails the
        whole logical fetch — a partial shard set is *not* a partial
        answer the policy may keep, it is a hole in one source's
        extent, so the merged reply carries the first failing shard's
        status and no records (no half-extent results can ever poison
        caches or artifacts).  Attempt-level accounting stays on the
        per-shard replies (the executor folds each one into its
        stats); the merged reply only aggregates the totals.
        """
        if len(parts) == 1:
            return parts[0]
        failed = next((part for part in parts if not part.ok), None)
        records: Any = ()
        if failed is None:
            records = tuple(
                record for part in parts for record in part.records
            )
        return FetchReply(
            source=source,
            request=request,
            records=records,
            status="ok" if failed is None else failed.status,
            attempts=(),
            elapsed=sum(part.elapsed for part in parts),
            index_hits=sum(part.index_hits for part in parts),
            scan_queries=sum(part.scan_queries for part in parts),
            error=None if failed is None else failed.error,
        )
