"""Plan execution: fetch through wrappers, reconcile, combine into OEM.

The executor realizes the federated promise of section 3.1: it ships
each plan step to the owning wrapper, evaluates residual predicates at
the mediator, applies the reconciler while joining link constraints,
and materializes one integrated OEM answer graph — *"their results
combined before being returned to the user"*.

Per-source fetches go through the :mod:`repro.mediator.fetch`
protocol: independent steps (link-step anchor retrieval, enrichment
detail) are issued concurrently by a :class:`FederatedFetcher`, and a
failing or slow source either aborts the query (the default) or —
under a degrading :class:`FederationPolicy` — yields a *partial*
integrated answer whose :class:`ExecutionReport` marks the source
degraded.
"""

import time
from dataclasses import dataclass, field

from repro.mediator.artifacts import stage_key
from repro.mediator.fetch import (
    FederatedFetcher,
    FederationPolicy,
    FetchRequest,
)
from repro.mediator.scheduler import StageScheduler
from repro.oem.graph import OEMGraph
from repro.oem.types import OEMType
from repro.sources.base import NativeCondition, _evaluate
from repro.trace.recorder import NULL_RECORDER
from repro.util.errors import IntegrationError
from repro.util.locks import new_lock


def _bind_residual(wrapper, residual):
    """Residual ``(label, op, value)`` triples bound to ``wrapper``'s
    source fields — resolved once per step, not once per record."""
    return [
        (wrapper.source_field(label), NativeCondition(label, op, value))
        for label, op, value in residual
    ]


def _residual_ok(record, bound):
    """True when ``record`` satisfies every bound residual condition."""
    return all(
        _evaluate(record.get(field), condition) for field, condition in bound
    )


def _delta_counter(span, name, delta):
    """Attach a phase-local counter delta to ``span`` (zeros are
    omitted so traces only carry counters that did work)."""
    if delta:
        span.set_counter(name, delta)


@dataclass
class SourceReport:
    """Per-source fetch accounting for one execution."""

    source: str
    fetches: int = 0
    rows: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    seconds: float = 0.0
    status: str = "ok"  # "ok" | "degraded"


@dataclass
class ExecutionStats:
    """Work accounting used by the optimizer/architecture benchmarks.

    Prefer reading these counters through
    :attr:`IntegratedResult.report` (an :class:`ExecutionReport`);
    direct access remains for existing callers.
    """

    rows_fetched: dict = field(default_factory=dict)
    residual_evaluations: int = 0
    anchors_considered: int = 0
    anchors_returned: int = 0
    wall_seconds: float = 0.0
    #: Source-level fetch-path accounting for this execution: native
    #: queries answered from an equality index vs by scanning.
    index_hits: int = 0
    scan_fetches: int = 0
    #: Cold-start accounting: equality indexes this execution had to
    #: (re)build by scanning an extent vs indexes the sources adopted
    #: from a persisted snapshot (``repro.sources.persistence``) while
    #: this execution ran.  A warm federation shows 0/0.
    indexes_rebuilt: int = 0
    indexes_adopted: int = 0
    #: Batched ``in`` fetches the executor issued instead of per-id
    #: fetch loops (semijoin anchors, enrichment detail).
    batched_fetches: int = 0
    #: Link-source enrichment indexes served entirely from the
    #: mediator's version-keyed cache (no source fetch at all).
    enrichment_cache_hits: int = 0
    #: Fault-tolerance accounting: attempts beyond the first, attempts
    #: abandoned on timeout, and fetch batches issued concurrently.
    retries: int = 0
    timeouts: int = 0
    concurrent_batches: int = 0
    #: Shard-grid accounting: logical fetches the stage scheduler
    #: fanned out across a shard grid, and fetches a replica set
    #: answered from a sibling after the placed replica failed.
    shard_fans: int = 0
    replica_failovers: int = 0
    #: Stage artifact cache accounting: stages skipped because a
    #: content-addressed artifact existed, stages that had to run, and
    #: artifact bytes moved (read on hits + written on stores).
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_bytes: int = 0
    #: Sources that failed but were tolerated (degrading policy): the
    #: answer is partial with respect to them.
    degraded_sources: list = field(default_factory=list)
    #: Per-source fetch reports (name -> :class:`SourceReport`).
    source_reports: dict = field(default_factory=dict)

    def total_rows_fetched(self):
        return sum(self.rows_fetched.values())

    def add_fetch(self, source_name, count):
        self.rows_fetched[source_name] = (
            self.rows_fetched.get(source_name, 0) + count
        )

    def record_reply(self, reply):
        """Fold one :class:`~repro.mediator.fetch.FetchReply` in."""
        self.add_fetch(reply.source, len(reply.records))
        self.retries += reply.retries
        self.timeouts += reply.timeouts
        report = self.source_reports.setdefault(
            reply.source, SourceReport(reply.source)
        )
        report.fetches += 1
        report.rows += len(reply.records)
        report.attempts += len(reply.attempts)
        report.retries += reply.retries
        report.timeouts += reply.timeouts
        report.seconds += reply.elapsed

    def mark_degraded(self, source_name):
        if source_name not in self.degraded_sources:
            self.degraded_sources.append(source_name)
        report = self.source_reports.setdefault(
            source_name, SourceReport(source_name)
        )
        report.status = "degraded"


class ExecutionReport:
    """One unified view of everything an execution did.

    Merges the split accounting of earlier revisions — the sources'
    ``fetch_stats`` dicts, :class:`ExecutionStats` counters, and the
    reconciliation report — behind a single object exposed as
    :attr:`IntegratedResult.report`: sources queried with per-source
    latency/status, index hits, batches, retries, timeouts, degraded
    sources, plus the reconciliation outcome under
    :attr:`reconciliation`.

    Counter attributes (``index_hits``, ``batched_fetches``,
    ``rows_fetched``, ...) delegate to the underlying
    :class:`ExecutionStats`; reconciliation conflicts live on
    ``result.reconciliation``.
    """

    def __init__(self, stats, reconciliation):
        self._stats = stats
        self.reconciliation = reconciliation

    # -- unified accounting --------------------------------------------------

    @property
    def sources(self):
        """Per-source fetch reports (name -> :class:`SourceReport`)."""
        return dict(self._stats.source_reports)

    @property
    def degraded(self):
        """Names of sources the answer is partial with respect to."""
        return tuple(self._stats.degraded_sources)

    @property
    def ok(self):
        """True when no source degraded (the answer is complete)."""
        return not self._stats.degraded_sources

    def __getattr__(self, name):
        stats = self.__dict__.get("_stats")
        if stats is None:
            raise AttributeError(name)
        try:
            return getattr(stats, name)
        except AttributeError:
            raise AttributeError(
                f"ExecutionReport has no attribute {name!r}"
            ) from None

    def describe(self):
        """Multi-line human-readable execution summary."""
        stats = self._stats
        lines = [
            f"execution report: {stats.total_rows_fetched()} rows from "
            f"{len(stats.source_reports)} source(s) in "
            f"{stats.wall_seconds * 1e3:.1f} ms",
            f"  index hits {stats.index_hits} / scans "
            f"{stats.scan_fetches} / batched fetches "
            f"{stats.batched_fetches} / enrichment cache hits "
            f"{stats.enrichment_cache_hits}",
            f"  cold start: {stats.indexes_rebuilt} index(es) rebuilt, "
            f"{stats.indexes_adopted} adopted from snapshot",
            f"  anchors {stats.anchors_returned}/{stats.anchors_considered} "
            f"kept / residual evaluations {stats.residual_evaluations}",
            f"  retries {stats.retries} / timeouts {stats.timeouts} / "
            f"concurrent batches {stats.concurrent_batches}",
            f"  shard fans {stats.shard_fans} / replica failovers "
            f"{stats.replica_failovers}",
            f"  artifact hits {stats.artifact_hits} / misses "
            f"{stats.artifact_misses} / bytes {stats.artifact_bytes}",
        ]
        for name in sorted(stats.source_reports):
            report = stats.source_reports[name]
            lines.append(
                f"  {name}: {report.status}, {report.fetches} fetch(es), "
                f"{report.rows} rows, {report.attempts} attempt(s), "
                f"{report.seconds * 1e3:.1f} ms"
            )
        if stats.degraded_sources:
            lines.append(
                "  PARTIAL ANSWER — degraded: "
                + ", ".join(sorted(stats.degraded_sources))
            )
        return "\n".join(lines)


class IntegratedResult:
    """One integrated answer: OEM view + plain records + diagnostics.

    ``result.report`` is the unified :class:`ExecutionReport`;
    ``result.reconciliation`` the
    :class:`~repro.mediator.reconcile.ReconciliationReport`.
    ``result.stats`` (the raw :class:`ExecutionStats`) remains as a
    deprecated alias — everything it carries is reachable through
    ``result.report``.
    """

    def __init__(self, graph, root, genes, reconciliation, stats, plan):
        self.graph = graph
        self.root = root
        self.genes = genes
        self.reconciliation = reconciliation
        self.stats = stats
        self.report = ExecutionReport(stats, reconciliation)
        self.plan = plan
        #: The query flight-recorder tree (a
        #: :class:`~repro.trace.recorder.Span`), set by the mediator
        #: when the query ran with tracing on; ``None`` otherwise.
        self.trace = None
        #: Set by the mediator when this (shared) result was served
        #: from its result cache; consumers accounting for execution
        #: work (e.g. service metrics) use it to skip warm replays.
        self.from_result_cache = False
        # GeneID -> gene dict, first occurrence winning, so lookups are
        # O(1) instead of a scan per call.
        self._genes_by_id = {}
        for gene in genes:
            self._genes_by_id.setdefault(gene["GeneID"], gene)

    def __len__(self):
        return len(self.genes)

    def gene_ids(self):
        return [gene["GeneID"] for gene in self.genes]

    def gene(self, gene_id):
        try:
            return self._genes_by_id[gene_id]
        except KeyError:
            raise IntegrationError(
                f"no gene {gene_id} in this result"
            ) from None

    def __repr__(self):
        partial = (
            f", degraded: {', '.join(self.report.degraded)}"
            if self.report.degraded
            else ""
        )
        return (
            f"IntegratedResult({len(self.genes)} genes, "
            f"{self.reconciliation.count()} conflicts observed{partial})"
        )


class Executor:
    """Walk :class:`~repro.mediator.plan.PhysicalPlan` stage DAGs.

    Every :class:`~repro.mediator.plan.FetchStage` carries its full
    intent — pushed/residual/closure condition split, link join shape,
    pruning decision, semijoin driver index — so execution only reads
    the plan, never re-derives it.

    ``enrichment_cache`` is a dict the owning mediator shares across
    executions; entries are keyed on the source *and its version
    counter*, so a cache hit is always as fresh as a re-fetch and any
    source mutation invalidates automatically.  ``batch_fetch=False``
    restores the per-id (N+1) fetch loops — the benchmarks measure the
    batched path against it.

    ``fetcher`` (a :class:`~repro.mediator.fetch.FederatedFetcher`)
    issues the plan's independent per-source fetches concurrently and
    applies the ``policy``'s timeout/retry/degradation semantics; the
    owning mediator shares one fetcher (and its thread pool) across
    executions.

    ``artifacts`` (an :class:`~repro.mediator.artifacts.ArtifactStore`,
    or ``None`` to disable) lets finished stages be skipped by content
    address.
    """

    #: Upper bound on shared-cache entries (stale versions are evicted
    #: eagerly; this bounds distinct live sources x index kinds).
    CACHE_MAX_ENTRIES = 64

    def __init__(self, wrappers_by_name, mapping_module, reconciler,
                 enrichment_cache=None, enrichment_cache_lock=None,
                 batch_fetch=True, fetcher=None,
                 policy=None, artifacts=None, budget=None):
        self.wrappers = wrappers_by_name
        self.mapping_module = mapping_module
        self.reconciler = reconciler
        self.batch_fetch = batch_fetch
        self.artifacts = artifacts
        #: Cooperative per-request :class:`~repro.util.cancel.RequestBudget`
        #: stamped onto every fetch this execution issues; an expired
        #: or cancelled budget makes remaining fetches return
        #: ``timeout`` replies immediately, so the federation policy
        #: degrades (or aborts) instead of hanging a worker.
        self.budget = budget
        if fetcher is None:
            self.policy = policy or FederationPolicy()
            self.fetcher = FederatedFetcher(self.policy)
        else:
            self.fetcher = fetcher
            self.policy = policy or fetcher.policy
        self._shared_cache = (
            enrichment_cache if enrichment_cache is not None else {}
        )
        # The enrichment/symbol cache is shared by every execution the
        # owning mediator runs — concurrently, under the service's
        # worker pool — so its get/evict/store sequences take a lock
        # (the mediator passes one lock for all executors it builds).
        self._shared_cache_lock = (
            enrichment_cache_lock if enrichment_cache_lock is not None
            else new_lock("Executor._shared_cache_lock")
        )
        # Places each plan stage's fetch on the wrappers' (shard,
        # replica) grid: logical requests expand to shard-pinned
        # physical requests and shard partials merge back.
        self._scheduler = StageScheduler()

    def _fetch_request(self, conditions, purpose):
        """A :class:`FetchRequest` carrying this execution's budget."""
        return FetchRequest(conditions, purpose=purpose, budget=self.budget)

    # -- shared version-keyed cache ---------------------------------------------

    def _cache_entry(self, key):
        with self._shared_cache_lock:
            return self._shared_cache.get(key)

    def _cache_store(self, key, value):
        """Insert one cache entry, evicting stale versions of the same
        source/kind first and bounding the total entry count."""
        kind, source_name = key[0], key[1]
        with self._shared_cache_lock:
            stale = [
                existing
                for existing in self._shared_cache
                if existing[0] == kind
                and existing[1] == source_name
                and existing != key
            ]
            for existing in stale:
                del self._shared_cache[existing]
            while len(self._shared_cache) >= self.CACHE_MAX_ENTRIES:
                oldest = next(iter(self._shared_cache))
                del self._shared_cache[oldest]
            self._shared_cache[key] = value

    def _failover_snapshot(self):
        """Cumulative replica failovers summed over the federation's
        replica sets (executions compute deltas against it)."""
        total = 0
        for wrapper in self.wrappers.values():
            count = getattr(wrapper, "failover_count", None)
            if callable(count):
                total += count()
        return total

    def _sched_fetch_all(self, jobs, stats, recorder=NULL_RECORDER):
        """Shard-aware fetch batch: expand each logical ``(wrapper,
        request)`` job onto the wrapper's shard grid, ship every
        physical request through one fetcher batch, and merge each
        job's shard partials back into one logical reply, returned in
        job order.

        Accounting stays physical — every shard partial folds into
        ``stats`` individually, so per-source fetch counts and
        retry/timeout totals reflect what actually crossed the pool —
        while callers only ever see the merged logical replies.
        """
        jobs = list(jobs)
        expanded = []
        bounds = []
        for wrapper, request in jobs:
            physical = self._scheduler.expand(wrapper, request)
            bounds.append((len(expanded), len(expanded) + len(physical)))
            expanded.extend((wrapper, part) for part in physical)
        replies = self.fetcher.fetch_all(expanded, recorder=recorder)
        merged = []
        for (wrapper, request), (start, stop) in zip(jobs, bounds):
            parts = replies[start:stop]
            for part in parts:
                stats.record_reply(part)
            if len(parts) > 1:
                stats.shard_fans += 1
            merged.append(
                self._scheduler.merge(wrapper.name, request, parts)
            )
        return merged

    def _sched_fetch(self, wrapper, request, stats,
                     recorder=NULL_RECORDER):
        """One logical fetch placed on the shard grid."""
        return self._sched_fetch_all(
            [(wrapper, request)], stats, recorder=recorder
        )[0]

    def _fetchpath_snapshot(self):
        """Cumulative per-source index/scan counters, summed over the
        federation (executions compute deltas against it)."""
        totals = {
            "index_hits": 0,
            "scan_queries": 0,
            "index_builds": 0,
            "index_adoptions": 0,
        }
        for wrapper in self.wrappers.values():
            source = getattr(wrapper, "source", None)
            fetch_stats = getattr(source, "fetch_stats", None)
            if fetch_stats is None:
                continue
            for counter, value in fetch_stats().items():
                totals[counter] = totals.get(counter, 0) + value
        return totals

    # -- entry point ------------------------------------------------------------

    def execute(self, plan, query, enrich_links=True,
                recorder=NULL_RECORDER):
        started = time.perf_counter()
        stats = ExecutionStats()
        counters_before = self._fetchpath_snapshot()
        failovers_before = self._failover_snapshot()
        from repro.mediator.reconcile import ReconciliationReport

        report = ReconciliationReport()

        anchor_wrapper = self.wrappers[plan.anchor.source_name]

        with recorder.span(
            "execute",
            attributes={
                "anchor": plan.anchor.source_name,
                "link_steps": len(plan.link_steps),
            },
        ) as execute_span:
            result = self._execute_traced(
                plan, query, enrich_links, recorder, stats, report,
                anchor_wrapper,
            )
            counters_after = self._fetchpath_snapshot()
            stats.index_hits = (
                counters_after["index_hits"] - counters_before["index_hits"]
            )
            stats.scan_fetches = (
                counters_after["scan_queries"]
                - counters_before["scan_queries"]
            )
            stats.indexes_rebuilt = (
                counters_after["index_builds"]
                - counters_before["index_builds"]
            )
            stats.indexes_adopted = (
                counters_after["index_adoptions"]
                - counters_before["index_adoptions"]
            )
            # The fetch-path counters are whole-execution deltas over
            # the sources' cumulative accounting, so they belong to the
            # execute span itself, not to any one fetch below it.
            _delta_counter(execute_span, "index_hits", stats.index_hits)
            _delta_counter(execute_span, "scan_fetches", stats.scan_fetches)
            _delta_counter(
                execute_span, "indexes_rebuilt", stats.indexes_rebuilt
            )
            _delta_counter(
                execute_span, "indexes_adopted", stats.indexes_adopted
            )
            # Grid accounting: shard fan-outs are counted as the
            # scheduler merges, replica failovers as a delta over the
            # replica sets' cumulative counters (failover happens
            # inside the pool, below this execution's view).
            stats.replica_failovers = (
                self._failover_snapshot() - failovers_before
            )
            _delta_counter(execute_span, "shard_fans", stats.shard_fans)
            _delta_counter(
                execute_span, "replica_failovers",
                stats.replica_failovers,
            )
            # Artifact accounting is likewise whole-execution: stages
            # skipped or run against the content-addressed store.
            _delta_counter(
                execute_span, "artifact_hits", stats.artifact_hits
            )
            _delta_counter(
                execute_span, "artifact_misses", stats.artifact_misses
            )
            _delta_counter(
                execute_span, "artifact_bytes", stats.artifact_bytes
            )
            stats.wall_seconds = time.perf_counter() - started
            if stats.degraded_sources:
                execute_span.set(
                    "degraded", sorted(stats.degraded_sources)
                )
        return result

    def _execute_traced(self, plan, query, enrich_links, recorder, stats,
                        report, anchor_wrapper):
        """The execute body, running inside the ``execute`` span."""
        # -- whole-answer artifact ------------------------------------------
        # The answer key is computable from the plan and the sources'
        # versions alone, so a repeated query can skip fetch,
        # reconcile and answer construction in one probe.  Traced
        # runs never read it (a hit would replay nothing and the
        # trace would be empty — the same rule as the result cache)
        # but still store, priming later untraced repeats.
        answer_key = self._answer_artifact_key(
            plan, query, anchor_wrapper, enrich_links
        )
        if answer_key is not None and not recorder.enabled:
            answer = self._artifact_get(answer_key, stats)
            if answer is not None:
                report.issues.extend(answer["issues"])
                return IntegratedResult(
                    answer["graph"], answer["root"], answer["genes"],
                    report, stats, plan,
                )

        # -- stage placement ------------------------------------------------
        # Where each plan stage's fetch lands on the (shard, replica)
        # grid — the same placement `explain` prints, preserved in the
        # flight recorder for executed queries.
        with recorder.span("schedule:place") as place_span:
            grid = self._scheduler.plan_grid(plan, self.wrappers)
            place_span.set("stages", len(grid))
            place_span.set(
                "grid", [entry.describe() for entry in grid]
            )

        # -- concurrent prefetch batch -------------------------------------
        # Every conditioned link-step fetch is independent of every
        # other, and of the (non-semijoin) anchor fetch: one batch on
        # the fetcher covers them all.  Replies are processed in job
        # order on this thread, so the execution stays deterministic.
        jobs = []
        for step in plan.link_steps:
            if step.link.reverse_join or not step.pruned:
                jobs.append((step, self.wrappers[step.source_name]))
        if plan.anchor.semijoin is None:
            jobs.append((plan.anchor, anchor_wrapper))

        self._degraded_steps = set()
        step_records = {}
        anchor_records = None
        with recorder.span(
            "fetch", attributes={"jobs": len(jobs)}
        ) as fetch_span:
            residual_before = stats.residual_evaluations
            replies = self._sched_fetch_all(
                [
                    (wrapper,
                     self._fetch_request(tuple(step.pushed),
                                         purpose=step.purpose))
                    for step, wrapper in jobs
                ],
                stats,
                recorder=recorder,
            )
            if len(jobs) > 1 and self.policy.max_workers > 1:
                stats.concurrent_batches += 1
                fetch_span.incr("concurrent_batches")

            for (step, wrapper), reply in zip(jobs, replies):
                if not reply.ok:
                    self._degrade_or_raise(reply, stats)
                    if step is plan.anchor:
                        anchor_records = []
                    else:
                        self._degraded_steps.add(id(step))
                    continue
                records = self._ingest_reply(wrapper, step, reply, stats)
                if step is plan.anchor:
                    anchor_records = records
                else:
                    step_records[id(step)] = records
            _delta_counter(
                fetch_span, "residual_evaluations",
                stats.residual_evaluations - residual_before,
            )

        # -- per-step state computed once, not per anchor record ----------
        # The allowed-id set of conditioned link steps, and the symbol
        # vocabulary index for symbol joins.
        allowed_by_step = {}
        self._symbol_indexes = {}
        self._reverse_indexes = {}
        for step in plan.link_steps:
            degraded_step = id(step) in self._degraded_steps
            if step.link.reverse_join and not degraded_step:
                index, conditioned_keys = self._reverse_index(
                    step, step_records[id(step)]
                )
                self._reverse_indexes[id(step)] = index
                allowed_by_step[id(step)] = conditioned_keys
            elif not step.pruned and not degraded_step:
                allowed_by_step[id(step)] = self._allowed_ids(
                    step, self.wrappers[step.source_name],
                    step_records[id(step)],
                )
            if step.link.symbol_join and not degraded_step:
                self._build_symbol_index(step, stats)

        if anchor_records is None:
            with recorder.span(
                "anchor",
                attributes={"source": plan.anchor.source_name},
            ) as anchor_span:
                residual_before = stats.residual_evaluations
                batched_before = stats.batched_fetches
                anchor_records = self._semijoin_anchor(
                    plan, allowed_by_step, stats, recorder
                )
                _delta_counter(
                    anchor_span, "batched_fetches",
                    stats.batched_fetches - batched_before,
                )
                _delta_counter(
                    anchor_span, "residual_evaluations",
                    stats.residual_evaluations - residual_before,
                )
                anchor_span.set("records", len(anchor_records))

        with recorder.span("reconcile") as reconcile_span:
            stats.anchors_considered = len(anchor_records)

            artifact_key = self._reconcile_artifact_key(plan, anchor_wrapper)
            cached_reconcile = (
                None
                if artifact_key is None
                else self._artifact_get(artifact_key, stats)
            )
            if cached_reconcile is not None:
                surviving = cached_reconcile["surviving"]
                matched_links = cached_reconcile["matched_links"]
                report.issues.extend(cached_reconcile["issues"])
            else:
                issues_before = len(report.issues)
                surviving, matched_links = self._reconcile_records(
                    plan, anchor_wrapper, anchor_records, report,
                    allowed_by_step,
                )
                if artifact_key is not None:
                    self._artifact_put(
                        artifact_key,
                        {
                            "surviving": surviving,
                            "matched_links": matched_links,
                            "issues": list(
                                report.issues[issues_before:]
                            ),
                        },
                        stats,
                        sources=self._plan_sources(plan),
                    )
            stats.anchors_returned = len(surviving)
            reconcile_span.set_counter(
                "anchors_considered", stats.anchors_considered
            )
            reconcile_span.set_counter(
                "anchors_returned", stats.anchors_returned
            )
            _delta_counter(reconcile_span, "conflicts", report.count())
            _delta_counter(
                reconcile_span, "repaired", report.repaired_count()
            )

        with recorder.span(
            "navigate", attributes={"enrich": bool(enrich_links)}
        ) as navigate_span:
            genes, graph, root = self._combine(
                plan, query, anchor_wrapper, surviving, matched_links,
                enrich_links, stats, recorder,
            )
            navigate_span.set("genes", len(genes))
        # Only a clean run is a reusable answer: a degraded execution
        # is missing data that these source versions *can* provide.
        if (
            answer_key is not None
            and not self._degraded_steps
            and not stats.degraded_sources
        ):
            self._artifact_put(
                answer_key,
                {
                    "genes": genes,
                    "graph": graph,
                    "root": root,
                    "issues": list(report.issues),
                },
                stats,
                sources=self._plan_sources(plan),
                live=True,
            )
        return IntegratedResult(graph, root, genes, report, stats, plan)

    # -- fetching ---------------------------------------------------------------

    def _degrade_or_raise(self, reply, stats):
        """Handle one failed reply per the federation policy.

        Raising reports an :class:`IntegrationError` naming the source,
        so federated callers see *which* member broke, not a bare
        traceback; degrading records the source as a gap in the answer.
        """
        if not self.policy.degrades:
            reply.raise_if_failed()
        stats.mark_degraded(reply.source)

    def _ingest_reply(self, wrapper, step, reply, stats):
        """One ok reply -> its records, filtered by the step's
        mediator-side residual predicates."""
        records = list(reply.records)
        if not step.residual:
            return records
        bound = _bind_residual(wrapper, step.residual)
        stats.residual_evaluations += len(bound) * len(records)
        return [record for record in records if _residual_ok(record, bound)]

    def _build_symbol_index(self, step, stats):
        """Version-keyed symbol-join index for one step (cached)."""
        from repro.mediator.reconcile import SymbolIndex

        wrapper = self.wrappers[step.source_name]
        symbol_local = self.mapping_module.correspondences(
            step.source_name
        ).to_local("GeneSymbol")
        if symbol_local is None:
            return
        key_label = self.mapping_module.to_local_label(
            step.source_name, step.link.via
        )
        cache_key = (
            "symbols",
            step.source_name,
            wrapper.version,
            key_label,
            symbol_local,
        )
        symbol_index = self._cache_entry(cache_key)
        if symbol_index is None:
            try:
                symbol_index = SymbolIndex.from_wrapper(
                    wrapper,
                    key_label=key_label,
                    symbol_label=symbol_local,
                    budget=self.budget,
                )
            except Exception as exc:
                if not self.policy.degrades:
                    raise IntegrationError(
                        f"source {step.source_name!r} failed during "
                        f"fetch: {exc}"
                    ) from exc
                # Partial answer: the symbol join contributes nothing.
                stats.mark_degraded(step.source_name)
                return
            self._cache_store(cache_key, symbol_index)
        self._symbol_indexes[step.source_name] = symbol_index

    def _reverse_index(self, step, records):
        """anchor GeneID -> set of link keys, from the linked source's
        back-references (conditioned records only)."""
        wrapper = self.wrappers[step.source_name]
        key_field = wrapper.source_field(
            self.mapping_module.to_local_label(
                step.source_name, step.link.via
            )
        )
        gene_field = wrapper.source_field(
            self.mapping_module.to_local_label(step.source_name, "GeneID")
        )
        index = {}
        conditioned_keys = set()
        for record in records:
            conditioned_keys.add(record[key_field])
            anchor_ref = record.get(gene_field)
            if anchor_ref:
                index.setdefault(anchor_ref, set()).add(record[key_field])
        return index, conditioned_keys

    def _semijoin_anchor(self, plan, allowed_by_step, stats,
                         recorder=NULL_RECORDER):
        """Retrieve the anchor by link-id equality instead of scanning.

        The driving link's allowed-id set is already computed; one
        batched ``in`` fetch retrieves every anchor carrying any of its
        ids alongside the anchor's pushed conditions (the N+1-free
        path).  Wrappers that cannot push ``in`` down fall back to the
        per-id equality loop.  Either way the results are de-duplicated
        by identity key and residual-filtered identically.

        A degraded driving link leaves no id set to join on, so the
        anchor falls back to its own conditioned fetch (the constraint
        is skipped — partial answer).
        """
        driver_source, via_label = plan.anchor.semijoin
        # The planner resolved the driving step at lowering time; the
        # executor never re-infers plan intent.
        driver_step = plan.link_steps[plan.driver_index]
        wrapper = self.wrappers[plan.anchor.source_name]
        key_local = self.mapping_module.to_local_label(
            wrapper.name, "GeneID"
        )
        key_field = wrapper.source_field(key_local)
        if id(driver_step) in self._degraded_steps:
            reply = self._sched_fetch(
                wrapper,
                self._fetch_request(tuple(plan.anchor.pushed),
                                    purpose="anchor"),
                stats,
                recorder=recorder,
            )
            if not reply.ok:
                self._degrade_or_raise(reply, stats)
                return []
            return self._ingest_reply(wrapper, plan.anchor, reply, stats)
        allowed = allowed_by_step[id(driver_step)]
        # Ensure the anchor source appears in the fetch accounting
        # exactly once even when the driving link matched nothing.
        stats.add_fetch(wrapper.name, 0)
        ordered_ids = sorted(allowed, key=str)

        # The stage's content address: the driving link's output (the
        # id set itself) plus the anchor's version and conditions fully
        # determine the deduped, residual-filtered, sorted anchor set.
        artifact_key = None
        if self.artifacts is not None:
            driver_wrapper = self.wrappers[driver_source]
            artifact_key = stage_key(
                "anchor-semijoin",
                source=wrapper.name,
                version=wrapper.version,
                conditions=tuple(plan.anchor.pushed)
                + tuple(plan.anchor.residual),
                upstream=(
                    (driver_source, driver_wrapper.version),
                    tuple(ordered_ids),
                ),
                extra=(via_label,),
            )
            payload = self._artifact_get(artifact_key, stats)
            if payload is not None:
                return list(payload["records"])

        batches = []
        anchor_failed = False
        if not ordered_ids:
            batches = []
        elif self.batch_fetch and wrapper.supports(via_label, "in"):
            reply = self._sched_fetch(
                wrapper,
                self._fetch_request(
                    tuple(plan.anchor.pushed)
                    + ((via_label, "in", tuple(ordered_ids)),),
                    purpose="anchor-semijoin",
                ),
                stats,
                recorder=recorder,
            )
            if reply.ok:
                stats.batched_fetches += 1
                batches.append(reply.records)
            else:
                self._degrade_or_raise(reply, stats)
                anchor_failed = True
        else:
            for link_id in ordered_ids:
                reply = self._sched_fetch(
                    wrapper,
                    self._fetch_request(
                        tuple(plan.anchor.pushed)
                        + ((via_label, "=", link_id),),
                        purpose="anchor-per-id",
                    ),
                    stats,
                    recorder=recorder,
                )
                if not reply.ok:
                    self._degrade_or_raise(reply, stats)
                    anchor_failed = True
                    break
                batches.append(reply.records)
        if anchor_failed:
            return []
        bound = _bind_residual(wrapper, plan.anchor.residual)
        seen = set()
        records = []
        for fetched in batches:
            for record in fetched:
                key = record[key_field]
                if key in seen:
                    continue
                seen.add(key)
                if bound:
                    stats.residual_evaluations += len(bound)
                    if not _residual_ok(record, bound):
                        continue
                records.append(record)
        records.sort(key=lambda record: record[key_field])
        if artifact_key is not None:
            self._artifact_put(
                artifact_key, {"records": records}, stats,
                sources=(wrapper.name, driver_source),
            )
        return records

    # -- reconciliation ------------------------------------------------------------

    def _reconcile_records(self, plan, anchor_wrapper, anchor_records,
                           report, allowed_by_step):
        """Record-at-a-time link matching with include/exclude break
        semantics.

        Every field a step reads off the anchor records is resolved
        once per step (:meth:`_link_matcher`), so the per-record work
        is dict reads plus the reconciler's validations.
        """
        anchor_key = self._anchor_field(anchor_wrapper)
        matchers = [
            (
                step,
                # Degraded source: its constraint cannot be evaluated,
                # so it is skipped — the YeastMed-style partial answer
                # is computed from the sources that responded, and the
                # report marks the gap.
                None
                if id(step) in self._degraded_steps
                else self._link_matcher(
                    step, anchor_wrapper, allowed_by_step.get(id(step))
                ),
            )
            for step in plan.link_steps
        ]
        surviving = []
        matched_links = []
        for record in anchor_records:
            anchor_id = record.get(anchor_key)
            links_for_record = {}
            keep = True
            for step, match in matchers:
                if match is None:
                    links_for_record[step.source_name] = []
                    continue
                matched = match(record, anchor_id, report)
                links_for_record[step.source_name] = matched
                if step.link.mode == "include" and not matched:
                    keep = False
                    break
                if step.link.mode == "exclude" and matched:
                    keep = False
                    break
            if keep:
                surviving.append(record)
                matched_links.append(links_for_record)
        return surviving, matched_links

    def _step_fingerprints(self, plan, degraded=None):
        """One stable tuple per link stage — each stage's own
        :meth:`~repro.mediator.plan.FetchStage.fingerprint`, the
        physical plan's content address.

        ``degraded`` (the run's degraded-step set) appends each step's
        degradation flag — the reconcile key includes it because
        degradation changes the stage's semantics; the answer key
        omits it and instead only ever *stores* clean runs.
        """
        steps = []
        for position, step in enumerate(plan.link_steps):
            wrapper = self.wrappers[step.source_name]
            steps.append(
                step.fingerprint(
                    position,
                    wrapper.version,
                    degraded=(
                        None
                        if degraded is None
                        else id(step) in degraded
                    ),
                )
            )
        return steps

    def _reconcile_artifact_key(self, plan, anchor_wrapper):
        """The reconcile stage's content address, or ``None`` when the
        artifact store is off.

        Every input the stage consumes is derived from (source,
        version, plan conditions): the anchor set, each step's
        allowed-id set or reverse index, and the symbol indexes.  The
        reconciler's policy and the run's degraded steps (which change
        semantics) are part of the key.
        """
        if self.artifacts is None:
            return None
        return stage_key(
            "reconcile",
            source=plan.anchor.source_name,
            version=anchor_wrapper.version,
            conditions=tuple(plan.anchor.pushed)
            + tuple(plan.anchor.residual),
            upstream=self._step_fingerprints(
                plan, degraded=self._degraded_steps
            ),
            extra=(
                plan.anchor.semijoin,
                repr(self.reconciler.policy),
            ),
        )

    def _answer_artifact_key(self, plan, query, anchor_wrapper,
                             enrich_links):
        """The answer-construction stage's content address, or
        ``None`` when the artifact store is off.

        The integrated answer is fully determined by the plan (which
        embeds every pushed/residual condition), the participating
        sources' versions, the projection, link enrichment, and the
        reconciler's policy — so the key is computable *before any
        fetch*, and a hit answers the whole query from the store.
        Degradation state is deliberately absent: only clean runs are
        stored, so a hit always serves a complete answer for these
        exact source versions.
        """
        if self.artifacts is None:
            return None
        return stage_key(
            "answer",
            source=plan.anchor.source_name,
            version=anchor_wrapper.version,
            conditions=tuple(plan.anchor.pushed)
            + tuple(plan.anchor.residual),
            upstream=self._step_fingerprints(plan),
            extra=(
                plan.anchor.semijoin,
                repr(self.reconciler.policy),
                bool(enrich_links),
                tuple(query.select),
            ),
        )

    def _plan_sources(self, plan):
        """Every source participating in a plan (artifact tags)."""
        names = {plan.anchor.source_name}
        names.update(step.source_name for step in plan.link_steps)
        return tuple(sorted(names))

    # -- stage artifacts -----------------------------------------------------------

    def _artifact_get(self, key, stats):
        """Probe the artifact store (when on), folding hit/miss/byte
        accounting into ``stats``."""
        if self.artifacts is None:
            return None
        found = self.artifacts.get(key)
        if found is None:
            stats.artifact_misses += 1
            return None
        payload, size = found
        stats.artifact_hits += 1
        stats.artifact_bytes += size
        return payload

    def _artifact_put(self, key, payload, stats, sources=(), live=False):
        """Store one finished stage's payload (when the store is on).

        ``live`` passes through to the store: the payload object is
        kept and later shared by reference (answer stage only).
        """
        if self.artifacts is None:
            return
        stats.artifact_bytes += self.artifacts.put(
            key, payload, sources=sources, live=live
        )

    # -- link matching -------------------------------------------------------------

    def _link_matcher(self, step, anchor_wrapper, allowed):
        """``match(record, anchor_id, report)``: the linked ids of one
        anchor record that satisfy one link step.

        The anchor fields the step reads (via, symbol, alias), its
        reverse or symbol index and its reconciler validation
        (dispatched on the link wrapper's capabilities) are resolved
        here, once per step; the returned closure only reads records.
        ``allowed`` is the precomputed id set of the step's conditioned
        fetch (``None`` for pruned steps: any valid id counts).
        """
        link = step.link
        link_wrapper = self.wrappers[step.source_name]
        validate = None
        if hasattr(link_wrapper, "is_obsolete"):
            validate = self.reconciler.valid_annotation_ids
        elif hasattr(link_wrapper, "entries_for_symbol"):
            validate = self.reconciler.valid_disease_ids
        reverse = via_field = None
        if link.reverse_join:
            reverse = self._reverse_indexes[id(step)]
        else:
            via_field = anchor_wrapper.source_field(
                self.mapping_module.to_local_label(
                    anchor_wrapper.name, link.via
                )
            )
        symbol_index = (
            self._symbol_indexes.get(step.source_name)
            if link.symbol_join
            else None
        )
        symbol_field = alias_field = None
        if symbol_index is not None:
            symbol_field = anchor_wrapper.source_field(
                self.mapping_module.to_local_label(
                    anchor_wrapper.name, "GeneSymbol"
                )
            )
            alias_local = self.mapping_module.correspondences(
                anchor_wrapper.name
            ).to_local("AliasSymbol")
            if alias_local is not None:
                alias_field = anchor_wrapper.source_field(alias_local)

        def match(record, anchor_id, report):
            if reverse is not None:
                matched = sorted(reverse.get(anchor_id, ()), key=str)
            else:
                raw_ids = record.get(via_field) or []
                if not isinstance(raw_ids, list):
                    raw_ids = [raw_ids]
                if validate is not None:
                    raw_ids = validate(
                        anchor_id, raw_ids, link_wrapper, report
                    )
                matched = [
                    link_id
                    for link_id in raw_ids
                    if allowed is None or link_id in allowed
                ]
            if symbol_index is not None:
                aliases = (
                    []
                    if alias_field is None
                    else record.get(alias_field) or []
                )
                via_symbols = self.reconciler.disease_ids_via_symbols(
                    anchor_id,
                    record.get(symbol_field, ""),
                    aliases,
                    link_wrapper,
                    report,
                    index=symbol_index,
                )
                for mim in sorted(via_symbols):
                    if allowed is not None and mim not in allowed:
                        continue
                    if mim not in matched:
                        matched.append(mim)
            return matched

        return match

    def _allowed_ids(self, step, link_wrapper, records):
        """Key ids of linked-source records satisfying the step's
        conditions (the un-pruned path)."""
        key_local = self.mapping_module.to_local_label(
            step.source_name, step.link.via
        )
        key_field = link_wrapper.source_field(key_local)
        allowed = {record[key_field] for record in records}
        for label, _op, value in step.closure:
            if label != key_local:
                raise IntegrationError(
                    f"'under' applies to the link key {key_local!r}, "
                    f"not {label!r}"
                )
            within = {value} | set(link_wrapper.descendants(value))
            allowed &= within
        return allowed

    def _anchor_field(self, anchor_wrapper):
        """The anchor records' GeneID field."""
        return anchor_wrapper.source_field(
            self.mapping_module.to_local_label(anchor_wrapper.name, "GeneID")
        )

    # -- combination into the integrated OEM view --------------------------------------

    def _combine(self, plan, query, anchor_wrapper, records, matched_links,
                 enrich_links, stats, recorder=NULL_RECORDER):
        graph = OEMGraph("integrated-view")
        root = graph.new_complex()
        graph.set_root("IntegratedView", root)

        enrichment = {}
        if enrich_links:
            enrichment = self._enrichment_indexes(
                plan, matched_links, stats, recorder
            )

        genes = []
        for record, links_for_record in zip(records, matched_links):
            gene_dict = self.mapping_module.translate_record(
                anchor_wrapper.name, record, anchor_wrapper
            )
            gene_dict["_links"] = links_for_record
            if query.select:
                gene_dict = {
                    key: value
                    for key, value in gene_dict.items()
                    if key in query.select or key in ("GeneID", "_links")
                }
            genes.append(gene_dict)
            gene_object = self._build_gene(
                graph, gene_dict, record, anchor_wrapper,
                links_for_record, enrichment, plan,
            )
            graph.add_edge(root, "Gene", gene_object)
        return genes, graph, root

    def _enrichment_indexes(self, plan, matched_links, stats,
                            recorder=NULL_RECORDER):
        """Per link source: id -> translated record, for view detail.

        Only the ids the surviving anchors actually matched are needed,
        so the fetch is a single batched ``in`` over that set (full
        fetch for wrappers without ``in``), and the translated index is
        cached on the mediator keyed ``(source, wrapper.version)`` —
        a repeat query over unchanged sources never re-fetches or
        re-translates, while any source mutation bumps the version and
        misses the cache.  The per-source fetches are independent, so
        they go out as one concurrent batch; a source failing here
        degrades to id-only link children instead of killing the query
        (under a degrading policy).
        """
        with recorder.span(
            "enrichment", attributes={"sources": len(plan.link_steps)}
        ) as span:
            cache_before = stats.enrichment_cache_hits
            batched_before = stats.batched_fetches
            concurrent_before = stats.concurrent_batches
            indexes = self._enrichment_fetch(
                plan, matched_links, stats, recorder
            )
            _delta_counter(
                span, "enrichment_cache_hits",
                stats.enrichment_cache_hits - cache_before,
            )
            _delta_counter(
                span, "batched_fetches",
                stats.batched_fetches - batched_before,
            )
            _delta_counter(
                span, "concurrent_batches",
                stats.concurrent_batches - concurrent_before,
            )
        return indexes

    def _enrichment_fetch(self, plan, matched_links, stats, recorder):
        """The enrichment body, running inside the ``enrichment``
        span."""
        indexes = {}
        pending = []
        for step in plan.link_steps:
            if id(step) in self._degraded_steps:
                indexes.setdefault(step.source_name, {})
                continue
            wrapper = self.wrappers[step.source_name]
            key_local = self.mapping_module.to_local_label(
                step.source_name, step.link.via
            )
            key_field = wrapper.source_field(key_local)
            needed = set()
            for links_for_record in matched_links:
                needed.update(links_for_record.get(step.source_name, ()))
            cache_key = ("enrichment", step.source_name, wrapper.version)
            cached = self._cache_entry(cache_key)
            if cached is None:
                cached = {"index": {}, "known": set(), "complete": False}
                self._cache_store(cache_key, cached)
            missing = (
                set()
                if cached["complete"]
                else {
                    link_id
                    for link_id in needed
                    if link_id not in cached["known"]
                }
            )
            if not missing:
                stats.enrichment_cache_hits += 1
                indexes[step.source_name] = cached["index"]
                continue
            ordered = tuple(sorted(missing, key=str))
            batched = self.batch_fetch and wrapper.supports(key_local, "in")
            artifact_key = None
            if self.artifacts is not None:
                artifact_key = stage_key(
                    "enrichment",
                    source=step.source_name,
                    version=wrapper.version,
                    conditions=(
                        ((key_local, "in", ordered),) if batched else ()
                    ),
                    extra=(ordered, bool(batched)),
                )
                payload = self._artifact_get(artifact_key, stats)
                if payload is not None:
                    cached["index"].update(payload["index"])
                    if payload["complete"]:
                        cached["complete"] = True
                    cached["known"].update(missing)
                    cached["known"].update(cached["index"])
                    indexes[step.source_name] = cached["index"]
                    continue
            request = self._fetch_request(
                ((key_local, "in", ordered),) if batched else (),
                purpose="enrichment" if batched else "enrichment-full",
            )
            pending.append(
                (step, wrapper, cached, missing, key_field, request,
                 batched, artifact_key)
            )
            indexes[step.source_name] = cached["index"]
        if not pending:
            return indexes
        replies = self._sched_fetch_all(
            [
                (wrapper, request)
                for _step, wrapper, _cached, _missing, _key, request, _b,
                _artifact_key in pending
            ],
            stats,
            recorder=recorder,
        )
        if len(pending) > 1 and self.policy.max_workers > 1:
            stats.concurrent_batches += 1
        for (step, wrapper, cached, missing, key_field, _request,
             batched, artifact_key), reply in zip(pending, replies):
            if not reply.ok:
                # Enrichment detail is decoration, not correctness: a
                # degraded source leaves its link children id-only.
                self._degrade_or_raise(reply, stats)
                continue
            if batched:
                stats.batched_fetches += 1
            else:
                cached["complete"] = True
            added = {}
            for record in reply.records:
                translated = self.mapping_module.translate_record(
                    step.source_name, record, wrapper
                )
                added[record[key_field]] = (translated, record)
            cached["index"].update(added)
            # Ids probed but absent from the source are remembered
            # too, so dangling references never re-fetch.
            cached["known"].update(missing)
            cached["known"].update(cached["index"])
            if artifact_key is not None:
                self._artifact_put(
                    artifact_key,
                    {"index": added, "complete": not batched},
                    stats,
                    sources=(step.source_name,),
                )
        return indexes

    def _build_gene(self, graph, gene_dict, record, anchor_wrapper,
                    links_for_record, enrichment, plan):
        gene = graph.new_complex()
        for key, value in gene_dict.items():
            if key == "_links" or value in (None, "", []):
                continue
            values = value if isinstance(value, list) else [value]
            for item in values:
                graph.attach_atomic(gene, key, item)
        # Linked detail objects (Annotation / Disease / Citation).
        for step in plan.link_steps:
            source_index = enrichment.get(step.source_name, {})
            child_label = _LINK_CHILD_LABELS.get(
                step.source_name, step.source_name
            )
            for link_id in links_for_record.get(step.source_name, ()):
                child = graph.attach_complex(gene, child_label)
                graph.attach_atomic(child, step.link.via, link_id)
                entry = source_index.get(link_id)
                if entry is not None:
                    translated, _raw = entry
                    for key in ("Title", "Aspect", "Inheritance",
                                "Journal", "Year", "SequenceLength"):
                        if translated.get(key) not in (None, "", []):
                            graph.attach_atomic(
                                child, key, translated[key]
                            )
        # Web links for interactive navigation.  Built from the
        # *reconciled* answer (self + matched link ids), never from the
        # raw record — raw links may dangle, and the integrated view
        # must only offer links that resolve.
        from repro.navigation.links import url_for

        links_object = graph.attach_complex(gene, "Links")
        anchor_id = record.get(self._anchor_field(anchor_wrapper))
        graph.attach_atomic(
            links_object,
            "Self",
            url_for(anchor_wrapper.name, anchor_id),
            OEMType.URL,
        )
        for step in plan.link_steps:
            for link_id in links_for_record.get(step.source_name, ()):
                graph.attach_atomic(
                    links_object,
                    step.source_name,
                    url_for(step.source_name, link_id),
                    OEMType.URL,
                )
        return gene


_LINK_CHILD_LABELS = {
    "GO": "Annotation",
    "OMIM": "Disease",
    "PubMed": "Citation",
    "SwissProt": "Protein",
}
