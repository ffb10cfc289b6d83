"""Plan execution: fetch through wrappers, reconcile, combine.

The executor realizes the federated promise of section 3.1: it ships
each plan step to the owning wrapper, evaluates residual predicates at
the mediator, applies the reconciler while joining link constraints,
and combines the results into one integrated answer — *"their results
combined before being returned to the user"*.  The answer's OEM view
is built from its :class:`~repro.mediator.view.AnswerView` when first
read, not here.

Per-source fetches go through the :mod:`repro.mediator.fetch`
protocol: independent steps (link-step anchor retrieval, enrichment
detail) are issued concurrently by a :class:`FederatedFetcher`, and a
failing or slow source either aborts the query (the default) or —
under a degrading :class:`FederationPolicy` — yields a *partial*
integrated answer whose :class:`ExecutionReport` marks the source
degraded.
"""

import contextlib
import time
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter, not_

from repro.mediator.fetch import (
    FederatedFetcher,
    FederationPolicy,
    FetchRequest,
)
from repro.mediator.reconcile import ReconciliationReport, SymbolIndex
from repro.mediator.view import (
    LINK_CHILD_LABELS,
    AnswerRows,
    AnswerView,
    link_detail,
)
from repro.sources.base import NativeCondition, _evaluate, new_tally, tallying
from repro.trace.metrics import METRICS
from repro.trace.recorder import NULL_RECORDER
from repro.util.errors import DataFormatError, IntegrationError, QueryError
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


#: The row of an anchor with no link ids and no conflicts; every such
#: row in every link table is this one object.
_EMPTY_ROW = ((), ())


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


class ExecutionReport:
    """Everything one execution did, exposed as
    :attr:`IntegratedResult.report`.

    ``counters`` holds every :data:`~repro.trace.metrics.METRICS`
    counter, in registry order, and :meth:`incr` is the only way they
    move.  ``rows_fetched`` maps each source fetched to its row count
    (a semijoin anchor that matched nothing is listed at 0),
    ``sources`` each source to its :class:`SourceReport`, and
    ``degraded`` names the sources the answer is partial with respect
    to.  ``reconciliation`` is the
    :class:`~repro.mediator.reconcile.ReconciliationReport`.

    The fetch-path counters (``index_hits`` … ``replica_failovers``)
    are summed from the request-scoped tallies of this execution's own
    fetches (:meth:`record_tally`), never from the sources' cumulative
    counters, so concurrent executions do not count each other.
    """

    def __init__(self, reconciliation=None, degraded=()):
        self.counters = dict.fromkeys(METRICS.names(), 0)
        self.rows_fetched = {}
        self.sources = {}
        self.wall_seconds = 0.0
        self.degraded = tuple(degraded)
        self.reconciliation = reconciliation

    @property
    def ok(self):
        """True when no source degraded (the answer is complete)."""
        return not self.degraded

    # -- counting ------------------------------------------------------------

    def incr(self, name, amount=1):
        """Add to one registered counter."""
        self.counters[name] += amount

    @contextlib.contextmanager
    def stage(self, recorder, name, attributes=None):
        """``with report.stage(recorder, "fetch") as span:`` — the
        stage's span, which on exit carries what the stage moved of
        each counter registered to it (zeros omitted).  An untraced
        run takes no snapshot."""
        with recorder.span(name, attributes=attributes) as span:
            if not recorder.enabled:
                yield span
                return
            before = dict(self.counters)
            yield span
            for metric in METRICS.carried_by(name):
                moved = self.counters[metric] - before[metric]
                if moved:
                    span.set_counter(metric, moved)

    def add_fetch(self, source_name, count):
        self.rows_fetched[source_name] = (
            self.rows_fetched.get(source_name, 0) + count
        )

    def record_tally(self, tally):
        """Fold in one fetch's request-scoped tally
        (:func:`~repro.sources.base.new_tally`)."""
        self.incr("index_hits", tally["index_hits"])
        self.incr("scan_fetches", tally["scan_queries"])
        self.incr("indexes_rebuilt", tally["index_builds"])
        self.incr("replica_failovers", tally["replica_failovers"])

    def record_reply(self, reply):
        """Fold one :class:`~repro.mediator.fetch.FetchReply` in."""
        rows = len(reply.records)
        self.add_fetch(reply.source, rows)
        self.record_tally(reply.tally)
        self.incr("rows", rows)
        self.incr("attempts", len(reply.attempts))
        self.incr("retries", reply.retries)
        self.incr("timeouts", reply.timeouts)
        source = self.sources.setdefault(
            reply.source, SourceReport(reply.source)
        )
        source.fetches += 1
        source.rows += rows
        source.attempts += len(reply.attempts)
        source.retries += reply.retries
        source.timeouts += reply.timeouts
        source.seconds += reply.elapsed

    def record_reconciliation(self):
        """Count the conflicts the reconciliation report holds."""
        self.incr("conflicts", self.reconciliation.count())
        self.incr("repaired", self.reconciliation.repaired_count())

    def mark_degraded(self, source_name):
        if source_name not in self.degraded:
            self.degraded += (source_name,)
        self.sources.setdefault(
            source_name, SourceReport(source_name)
        ).status = "degraded"

    def describe(self):
        """Multi-line human-readable execution summary: every counter,
        grouped by the stages that carry it, then each source."""
        lines = [
            f"execution report: {self.counters['rows']} rows from "
            f"{len(self.sources)} source(s) in "
            f"{self.wall_seconds * 1e3:.1f} ms",
        ]
        groups = {}
        for metric in METRICS:
            groups.setdefault(metric.stages, []).append(
                f"{metric.name} {self.counters[metric.name]}"
            )
        for stages, counts in groups.items():
            lines.append(f"  {'+'.join(stages)}: {' / '.join(counts)}")
        for name in sorted(self.sources):
            source = self.sources[name]
            lines.append(
                f"  {name}: {source.status}, {source.fetches} fetch(es), "
                f"{source.rows} rows, {source.attempts} attempt(s), "
                f"{source.seconds * 1e3:.1f} ms"
            )
        if self.degraded:
            lines.append(
                "  PARTIAL ANSWER — degraded: "
                + ", ".join(sorted(self.degraded))
            )
        return "\n".join(lines)


class IntegratedResult:
    """One integrated answer: gene rows + OEM view + diagnostics.

    ``result.genes`` are the answer's gene rows in the global
    vocabulary, built from ``rows`` (an
    :class:`~repro.mediator.view.AnswerRows`: the surviving anchor
    records and their matched link ids, still columns) on the first
    read that needs them: ``genes``, :meth:`gene`, the OEM view, the
    renderers, pivot and export, or a pickle; until then no gene
    carries a ``_links`` dict of its own.  ``result.graph`` and
    ``result.root`` are the integrated OEM view, built from
    ``result.view`` (an :class:`~repro.mediator.view.AnswerView`) on
    the first read of either.  Each is built once per result, even
    when the answer cache hands the same result to many threads.
    :meth:`gene_ids`, ``len(result)`` and ``repr(result)`` read no row.

    ``result.report`` is the :class:`ExecutionReport`;
    ``result.reconciliation`` its
    :class:`~repro.mediator.reconcile.ReconciliationReport`.
    """

    def __init__(self, rows, view, report, plan):
        # ``rows`` is an AnswerRows, or — for an answer unpickled from
        # the cache's disk tier — the built gene rows.
        if isinstance(rows, AnswerRows):
            self._rows = rows
            self._genes = None
            self._gene_ids = rows.gene_ids()
        else:
            self._rows = None
            self._genes = rows
            self._gene_ids = [gene["GeneID"] for gene in rows]
        self._genes_by_id = None
        self.view = view
        self._built = None
        self._build_lock = new_lock("IntegratedResult._build_lock")
        self.reconciliation = report.reconciliation
        self.report = report
        self.plan = plan
        #: The query flight-recorder tree (a
        #: :class:`~repro.trace.recorder.Span`), set by the mediator
        #: when the query ran with tracing on; ``None`` otherwise.
        self.trace = None
        #: Set by the mediator once this (shared) result has been
        #: served from its answer cache.  The flag lives on the shared
        #: object, so it says nothing about which serving was the
        #: miss: accounting that must count each execution once (the
        #: service's ``/metrics``) tracks result objects instead.
        self.from_result_cache = False

    def __len__(self):
        return len(self._gene_ids)

    def __reduce__(self):
        # A pickled answer (the cache's disk tier) keeps what it
        # answered — its built rows, the sources it is partial with
        # respect to and the conflicts it reconciled — not what it
        # cost: it loads with its other counters at 0, no trace and no
        # built graph.
        report = ExecutionReport(self.reconciliation, self.report.degraded)
        report.record_reconciliation()
        return (
            IntegratedResult,
            (self.genes, self.view, report, self.plan),
        )

    def _genes_locked(self):
        """The gene rows, built on the first call; the caller holds
        ``_build_lock``."""
        if self._genes is None:
            self._genes = self._rows.build()
            self._rows = None
        return self._genes

    @property
    def genes(self):
        """The answer's gene rows, each carrying its matched link ids
        under ``_links``."""
        with self._build_lock:
            return self._genes_locked()

    def _graph_and_root(self):
        with self._build_lock:
            if self._built is None:
                self._built = self.view.build(self._genes_locked())
            return self._built

    @property
    def graph(self):
        """The integrated OEM view (an :class:`~repro.oem.graph.OEMGraph`)."""
        return self._graph_and_root()[0]

    @property
    def root(self):
        """The view's ``IntegratedView`` root object."""
        return self._graph_and_root()[1]

    def gene_ids(self):
        return list(self._gene_ids)

    def gene(self, gene_id):
        with self._build_lock:
            if self._genes_by_id is None:
                # GeneID -> gene row, first occurrence winning, so
                # lookups are O(1) instead of a scan per call.
                by_id = {}
                for gene in self._genes_locked():
                    by_id.setdefault(gene["GeneID"], gene)
                self._genes_by_id = by_id
            genes_by_id = self._genes_by_id
        try:
            return genes_by_id[gene_id]
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
            f"IntegratedResult({len(self)} genes, "
            f"{self.reconciliation.count()} conflicts observed{partial})"
        )


class Executor:
    """Run a :class:`~repro.mediator.plan.PhysicalPlan`.

    Every :class:`~repro.mediator.plan.FetchStage` carries its full
    intent — pushed/residual/closure condition split, link join shape,
    pruning decision, semijoin driver index — so execution only reads
    the plan, never re-derives it.

    ``artifacts`` is the owning mediator's
    :class:`~repro.mediator.artifacts.ArtifactStore`, shared across
    executions; the enrichment and symbol indexes and the link tables
    kept there are keyed on their sources *and their version
    counters*, so a cache hit is always as fresh as a re-fetch and any
    source mutation invalidates automatically.  ``batch_fetch=False`` restores the per-id (N+1)
    fetch loops — the benchmarks measure the batched path against it.

    ``fetcher`` (a :class:`~repro.mediator.fetch.FederatedFetcher`)
    issues the plan's independent per-source fetches concurrently and
    applies the ``policy``'s timeout/retry/degradation semantics; the
    owning mediator shares one fetcher (and its thread pool) across
    executions.
    """

    def __init__(self, wrappers_by_name, mapping_module, reconciler,
                 artifacts, batch_fetch=True, fetcher=None,
                 policy=None, budget=None):
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

    def _fetch_request(self, conditions, purpose):
        """A :class:`FetchRequest` carrying this execution's budget."""
        return FetchRequest(conditions, purpose=purpose, budget=self.budget)

    def _fetch_all(self, jobs, report, recorder=NULL_RECORDER):
        """Ship ``(wrapper, request)`` jobs as one fetcher batch and
        fold every reply into ``report``; replies come back in job
        order."""
        replies = self.fetcher.fetch_all(jobs, recorder=recorder)
        for reply in replies:
            report.record_reply(reply)
        return replies

    # -- entry point ------------------------------------------------------------

    def execute(self, plan, query, enrich_links=True,
                recorder=NULL_RECORDER):
        started = time.perf_counter()
        report = ExecutionReport(ReconciliationReport())

        anchor_wrapper = self.wrappers[plan.anchor.source_name]

        with report.stage(
            recorder,
            "execute",
            attributes={
                "anchor": plan.anchor.source_name,
                "link_steps": len(plan.link_steps),
            },
        ) as execute_span:
            result = self._execute_traced(
                plan, query, enrich_links, recorder, report, anchor_wrapper
            )
            report.wall_seconds = time.perf_counter() - started
            if report.degraded:
                execute_span.set("degraded", sorted(report.degraded))
        return result

    def _execute_traced(self, plan, query, enrich_links, recorder, report,
                        anchor_wrapper):
        """The execute body, running inside the ``execute`` span."""
        # The versions of the sources this plan reads, before any fetch:
        # the link tables this execution reads and fills are keyed on
        # them (see _link_table).
        self._versions = {
            step.source_name: self.wrappers[step.source_name].version
            for step in (plan.anchor, *plan.link_steps)
        }
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
        with report.stage(recorder, "fetch", attributes={"jobs": len(jobs)}):
            replies = self._fetch_all(
                [
                    (wrapper,
                     self._fetch_request(tuple(step.pushed),
                                         purpose=step.purpose))
                    for step, wrapper in jobs
                ],
                report,
                recorder=recorder,
            )
            if len(jobs) > 1 and self.policy.max_workers > 1:
                report.incr("concurrent_batches")

            for (step, wrapper), reply in zip(jobs, replies):
                if not reply.ok:
                    self._degrade_or_raise(reply, report)
                    if step is plan.anchor:
                        anchor_records = []
                    else:
                        self._degraded_steps.add(id(step))
                    continue
                records = self._ingest_reply(wrapper, step, reply, report)
                if step is plan.anchor:
                    anchor_records = records
                else:
                    step_records[id(step)] = records

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
                self._build_symbol_index(step, report)

        if anchor_records is None:
            with report.stage(
                recorder,
                "anchor",
                attributes={"source": plan.anchor.source_name},
            ) as anchor_span:
                anchor_records = self._semijoin_anchor(
                    plan, allowed_by_step, report, recorder
                )
                anchor_span.set("records", len(anchor_records))

        with report.stage(recorder, "reconcile"):
            report.incr("anchors_considered", len(anchor_records))
            surviving, anchor_ids, links = self._reconcile_records(
                plan, query, anchor_wrapper, anchor_records,
                report.reconciliation, allowed_by_step,
            )
            report.incr("anchors_returned", len(surviving))
            report.record_reconciliation()

        with recorder.span(
            "navigate", attributes={"enrich": bool(enrich_links)}
        ) as navigate_span:
            rows, view = self._combine(
                plan, query, anchor_wrapper, surviving, anchor_ids, links,
                enrich_links, report, recorder,
            )
            result = IntegratedResult(rows, view, report, plan)
            navigate_span.set("genes", len(result))
        return result

    # -- fetching ---------------------------------------------------------------

    def _degrade_or_raise(self, reply, report):
        """Handle one failed reply per the federation policy.

        Raising reports an :class:`IntegrationError` naming the source,
        so federated callers see *which* member broke, not a bare
        traceback; degrading records the source as a gap in the answer.
        """
        if not self.policy.degrades:
            reply.raise_if_failed()
        report.mark_degraded(reply.source)

    def _ingest_reply(self, wrapper, step, reply, report):
        """One ok reply -> its records, filtered by the step's
        mediator-side residual predicates."""
        records = list(reply.records)
        if not step.residual:
            return records
        bound = _bind_residual(wrapper, step.residual)
        report.incr("residual_evaluations", len(bound) * len(records))
        return [record for record in records if _residual_ok(record, bound)]

    def _build_symbol_index(self, step, report):
        """Version-keyed symbol-join index for one step (cached)."""
        wrapper = self.wrappers[step.source_name]
        symbol_local = self.mapping_module.correspondences(
            step.source_name
        ).to_local("GeneSymbol")
        if symbol_local is None:
            return
        key_label = self.mapping_module.to_local_label(
            step.source_name, step.link.via
        )
        identity = (step.source_name, key_label, symbol_local)
        versions = ((step.source_name, wrapper.version),)
        symbol_index = self.artifacts.get("symbols", identity, versions)
        if symbol_index is None:
            # The build fetches outside the fetcher, so it keeps its own
            # tally for this execution's report.
            tally = new_tally()
            try:
                with tallying(tally):
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
                report.mark_degraded(step.source_name)
                return
            finally:
                report.record_tally(tally)
            self.artifacts.put("symbols", identity, versions, symbol_index)
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

    def _semijoin_anchor(self, plan, allowed_by_step, report,
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
        _driver_source, via_label = plan.anchor.semijoin
        # The optimizer names the driving step; the executor never
        # re-infers plan intent.
        driver_step = plan.link_steps[plan.driver_index]
        wrapper = self.wrappers[plan.anchor.source_name]
        key_local = self.mapping_module.to_local_label(
            wrapper.name, "GeneID"
        )
        key_field = wrapper.source_field(key_local)
        if id(driver_step) in self._degraded_steps:
            request = self._fetch_request(
                tuple(plan.anchor.pushed), purpose="anchor"
            )
            [reply] = self._fetch_all(
                [(wrapper, request)], report, recorder=recorder
            )
            if not reply.ok:
                self._degrade_or_raise(reply, report)
                return []
            return self._ingest_reply(wrapper, plan.anchor, reply, report)
        allowed = allowed_by_step[id(driver_step)]
        # Ensure the anchor source appears in the fetch accounting
        # exactly once even when the driving link matched nothing.
        report.add_fetch(wrapper.name, 0)
        ordered_ids = sorted(allowed, key=str)
        batches = []
        anchor_failed = False
        if not ordered_ids:
            batches = []
        elif self.batch_fetch and wrapper.supports(via_label, "in"):
            request = self._fetch_request(
                tuple(plan.anchor.pushed)
                + ((via_label, "in", tuple(ordered_ids)),),
                purpose="anchor-semijoin",
            )
            [reply] = self._fetch_all(
                [(wrapper, request)], report, recorder=recorder
            )
            if reply.ok:
                report.incr("batched_fetches")
                batches.append(reply.records)
            else:
                self._degrade_or_raise(reply, report)
                anchor_failed = True
        else:
            for link_id in ordered_ids:
                request = self._fetch_request(
                    tuple(plan.anchor.pushed)
                    + ((via_label, "=", link_id),),
                    purpose="anchor-per-id",
                )
                [reply] = self._fetch_all(
                    [(wrapper, request)], report, recorder=recorder
                )
                if not reply.ok:
                    self._degrade_or_raise(reply, report)
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
                    report.incr("residual_evaluations", len(bound))
                    if not _residual_ok(record, bound):
                        continue
                records.append(record)
        records.sort(key=lambda record: record[key_field])
        return records

    # -- reconciliation ------------------------------------------------------------

    def _reconcile_records(self, plan, query, anchor_wrapper,
                           anchor_records, reconciliation, allowed_by_step):
        """Step-at-a-time link matching with include/exclude break
        semantics: ``(survivors, their anchor ids, link columns)``.

        Each link step runs once over the anchors still alive.  It
        reads their rows from its link table in one pass
        (:meth:`_step_rows`), keeps the ids its conditions allow
        (:meth:`_matched_ids`), and narrows the live anchors and the
        matched-id columns of earlier steps by one mask: an include
        without a link, or an exclude with one, drops the anchor, and
        later steps never see it.  So the steps reach exactly the
        (anchor, step) pairs an anchor-at-a-time loop with an early
        break would.  A degraded step's constraint cannot be evaluated,
        so it is skipped: the partial answer is computed from the
        sources that responded, and the report marks the gap.

        The conflicts the rows raised are recorded after the last step,
        in anchor-then-step order; a source several links name records
        each of its conflicts once per anchor.

        The link columns are ``(source, column)`` pairs, one per link
        source, in the order of the answer rows' ``_links`` keys; each
        column holds one tuple of matched ids per survivor.  A source
        several links name gets the union of their ids, in question
        order, each id once, so the answer does not depend on how the
        optimizer ordered the steps; those sources come after the ones
        named once, which keep step order.
        """
        steps = plan.link_steps
        by_source = {}
        for index in sorted(
            range(len(steps)),
            key=lambda index: query.links.index(steps[index].link),
        ):
            by_source.setdefault(steps[index].source_name, []).append(index)
        shared = {
            source_name: indexes
            for source_name, indexes in by_source.items()
            if len(indexes) > 1
        }
        live = list(anchor_records)
        positions = range(len(live))
        # Step index -> one tuple of matched ids per live anchor; a
        # degraded step keeps None.
        columns = [None] * len(steps)
        # (anchor position, step index, issues), step by step.
        raised = []
        for index, step in enumerate(steps):
            if id(step) in self._degraded_steps:
                continue
            rows = self._step_rows(step, anchor_wrapper, live)
            issues = list(map(itemgetter(1), rows))
            raised.extend(
                (position, index, found)
                for position, found in compress(
                    zip(positions, issues), issues
                )
            )
            matched = self._matched_ids(
                step, anchor_wrapper, live, rows,
                allowed_by_step.get(id(step)),
            )
            columns[index] = matched
            keep = (
                matched
                if step.link.mode == "include"
                else list(map(not_, matched))
            )
            if not all(keep):
                live = list(compress(live, keep))
                positions = list(compress(positions, keep))
                columns = [
                    None if column is None else list(compress(column, keep))
                    for column in columns
                ]

        # Sorting by position alone keeps each anchor's issues in step
        # order.
        raised.sort(key=itemgetter(0))
        recorded = {}
        for position, index, found in raised:
            source_name = steps[index].source_name
            if source_name in shared:
                seen = recorded.setdefault((position, source_name), set())
                fresh = [issue for issue in found if issue not in seen]
                seen.update(found)
                found = fresh
            reconciliation.issues.extend(found)

        empty = [()] * len(live)
        columns = [empty if column is None else column for column in columns]
        links = [
            (step.source_name, columns[index])
            for index, step in enumerate(steps)
            if step.source_name not in shared
        ]
        for source_name, indexes in shared.items():
            links.append((source_name, [
                tuple(dict.fromkeys(chain.from_iterable(ids)))
                for ids in zip(*(columns[index] for index in indexes))
            ]))
        anchor_field = self._anchor_field(anchor_wrapper)
        anchor_ids = [record.get(anchor_field) for record in live]
        return live, anchor_ids, tuple(links)

    def _step_rows(self, step, anchor_wrapper, records):
        """Every live anchor's row for one link step, in anchor order.

        The rows are read from the step's link table in one pass; only
        the misses are built (:meth:`_row_builder`), and they are
        published together once all are built, if ``unchanged()`` still
        holds then (:meth:`_link_table`).  With no link table every row
        is built.
        """
        link_wrapper = self.wrappers[step.source_name]
        symbol_index = (
            self._symbol_indexes.get(step.source_name)
            if step.link.symbol_join
            else None
        )
        build_row, fields = self._row_builder(
            step.link, anchor_wrapper, link_wrapper, symbol_index
        )
        table = self._link_table(step, anchor_wrapper, fields, symbol_index)
        if table is None:
            return list(map(build_row, records))
        rows, unchanged = table
        keys = list(map(
            itemgetter(anchor_wrapper.source_field(anchor_wrapper.key_label)),
            records,
        ))
        found = list(map(rows.get, keys))
        if None in found:
            built = {}
            for position, row in enumerate(found):
                if row is None:
                    row = found[position] = build_row(records[position])
                    built[keys[position]] = row
            if unchanged():
                for key, row in built.items():
                    rows.setdefault(key, row)
        return found

    def _matched_ids(self, step, anchor_wrapper, records, rows, allowed):
        """Per anchor record and its row, the tuple of the row's ids
        that satisfy the step.

        ``allowed`` is the precomputed id set of the step's conditioned
        fetch (``None`` for pruned steps: any valid id counts, and the
        row's own tuple is kept).  A reverse join's own ids come first,
        from its per-question reverse index.
        """
        matched = list(map(itemgetter(0), rows))
        if allowed is not None:
            allows = allowed.__contains__
            matched = [ids and tuple(filter(allows, ids)) for ids in matched]
        if step.link.reverse_join:
            reverse = self._reverse_indexes[id(step)]
            anchor_field = self._anchor_field(anchor_wrapper)
            for position, record in enumerate(records):
                own = sorted(
                    reverse.get(record.get(anchor_field), ()), key=str
                )
                matched[position] = (*own, *(
                    link_id
                    for link_id in matched[position]
                    if link_id not in own
                ))
        return matched

    def _row_builder(self, link, anchor_wrapper, link_wrapper, symbol_index):
        """``(build_row, fields)`` for one link step.

        ``build_row(record)`` is the per-record link validation, the
        one place it happens: it returns the anchor's row,
        ``(ids, issues)`` — the reconciler-validated direct link
        ids (none for a reverse join), then the ids the symbol index
        adds that are not already among them, and the
        :class:`~repro.mediator.reconcile.Issue` objects validation
        raised, in the order the reconciler raised them.  The ids are
        not yet filtered by the step's conditions, so a row depends
        only on the anchor record, the link source and the policy.
        ``fields`` are the anchor fields rows read.
        """
        reconciler = self.reconciler
        anchor_field = self._anchor_field(anchor_wrapper)
        validate = None
        if hasattr(link_wrapper, "is_obsolete"):
            validate = reconciler.valid_annotation_ids
        elif hasattr(link_wrapper, "exists"):
            validate = reconciler.valid_disease_ids
        via_field = None
        if not link.reverse_join:
            via_field = anchor_wrapper.source_field(
                self.mapping_module.to_local_label(
                    anchor_wrapper.name, link.via
                )
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

        # One collector for every row this builder makes: each row
        # takes a copy of what its own validation raised.
        found = ReconciliationReport()
        issues = found.issues

        def build_row(record):
            issues.clear()
            anchor_id = record.get(anchor_field)
            ids = []
            if via_field is not None:
                ids = record.get(via_field) or []
                if not isinstance(ids, (list, tuple)):
                    ids = [ids]
                ids = (
                    list(ids)
                    if validate is None
                    else validate(anchor_id, ids, link_wrapper, found)
                )
            if symbol_index is not None:
                aliases = (
                    []
                    if alias_field is None
                    else record.get(alias_field) or []
                )
                via_symbols = reconciler.disease_ids_via_symbols(
                    anchor_id,
                    record.get(symbol_field, ""),
                    aliases,
                    link_wrapper,
                    found,
                    index=symbol_index,
                )
                ids += [mim for mim in sorted(via_symbols) if mim not in ids]
            if not ids and not issues:
                return _EMPTY_ROW
            return tuple(ids), tuple(issues)

        fields = (
            anchor_field,
            via_field,
            symbol_field,
            alias_field,
        )
        return build_row, fields

    def _link_table(self, step, anchor_wrapper, fields, symbol_index):
        """``(rows, unchanged)``: the step's shared link table and a
        check that neither source it is keyed on has moved since this
        execution began, or ``None`` when the anchor has no primary key
        to file rows under.

        The table is an ``ArtifactStore`` ``links`` entry: anchor
        primary key -> row.  It is identified by the anchor and link
        sources, the link attribute, the anchor fields rows read,
        whether a symbol index joined and the reconciliation policy,
        and keyed on both sources' versions as they stood before this
        execution fetched anything — nothing about the question, so
        every question over the same link shares it.

        A step publishes the rows it built once all are built, and only
        if ``unchanged()`` holds then: version counters only grow, so
        the rows were then built wholly from data at the table's
        versions.  A row another execution published meanwhile is kept.
        So a table only ever grows by complete rows valid at its
        versions, and a published row is never changed.
        """
        if anchor_wrapper.key_label is None:
            return None
        link_source = step.source_name
        identity = (
            anchor_wrapper.name,
            link_source,
            step.link.via,
            fields,
            symbol_index is not None,
            self.reconciler.policy,
        )
        versions = (
            (anchor_wrapper.name, self._versions[anchor_wrapper.name]),
            (link_source, self._versions[link_source]),
        )
        rows = self.artifacts.setdefault("links", identity, versions, dict)
        link_wrapper = self.wrappers[link_source]
        (_anchor, anchor_version), (_link, link_version) = versions

        def unchanged():
            return (
                anchor_wrapper.version == anchor_version
                and link_wrapper.version == link_version
            )

        return rows, unchanged

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
            try:
                within = {value} | set(link_wrapper.descendants(value))
            except DataFormatError:
                raise QueryError(
                    f"'under' names {value!r}, which {step.source_name} "
                    "does not hold"
                ) from None
            allowed &= within
        return allowed

    def _anchor_field(self, anchor_wrapper):
        """The anchor records' GeneID field."""
        return anchor_wrapper.source_field(
            self.mapping_module.to_local_label(anchor_wrapper.name, "GeneID")
        )

    # -- combination into the integrated answer ---------------------------------

    def _combine(self, plan, query, anchor_wrapper, records, anchor_ids,
                 links, enrich_links, report, recorder=NULL_RECORDER):
        """The answer's :class:`~repro.mediator.view.AnswerRows` and
        :class:`~repro.mediator.view.AnswerView`, from the survivors,
        their anchor ids and their link columns
        (:meth:`_reconcile_records`); the gene rows and the OEM view
        themselves are built when first read
        (:class:`IntegratedResult`)."""
        details = {}
        if enrich_links:
            details = self._enrichment_indexes(plan, links, report, recorder)

        anchor_ids = tuple(anchor_ids)
        rows = AnswerRows(
            anchors=records,
            anchor_ids=anchor_ids,
            links=links,
            select=query.select,
            steps=self.mapping_module.translation_steps(
                anchor_wrapper.name, anchor_wrapper
            ),
        )
        # One view entry per link source, however many links name it.
        link_views = {}
        for step in plan.link_steps:
            link_views.setdefault(
                step.source_name,
                (
                    step.source_name,
                    step.link.via,
                    LINK_CHILD_LABELS.get(
                        step.source_name, step.source_name
                    ),
                ),
            )
        view = AnswerView(
            anchor_source=anchor_wrapper.name,
            anchor_ids=anchor_ids,
            link_steps=tuple(link_views.values()),
            details=details,
        )
        return rows, view

    def _enrichment_indexes(self, plan, links, report,
                            recorder=NULL_RECORDER):
        """Per link source: matched id -> detail pairs, for the view.

        Only the ids the surviving anchors actually matched are needed,
        so the fetch is a single batched ``in`` over that set (full
        fetch for wrappers without ``in``), and each record's detail
        pairs (:func:`~repro.mediator.view.link_detail`) are cached on
        the mediator keyed on the source, its transform rules and
        ``wrapper.version`` —
        a repeat query over unchanged sources never re-fetches or
        re-translates, while any source mutation bumps the version and
        misses the cache.  The per-source fetches are independent, so
        they go out as one concurrent batch; a source failing here
        degrades to id-only link children instead of killing the query
        (under a degrading policy).
        """
        with report.stage(
            recorder, "enrichment",
            attributes={"sources": len(plan.link_steps)},
        ):
            return self._enrichment_fetch(plan, links, report, recorder)

    def _enrichment_fetch(self, plan, links, report, recorder):
        """The enrichment body, running inside the ``enrichment``
        span; ``links`` are the answer's link columns."""
        columns = dict(links)
        # source -> (the shared cache's index, ids the answer matched)
        wanted = {}
        pending = []
        for step in plan.link_steps:
            # A source several links name is enriched once.
            if (
                id(step) in self._degraded_steps
                or step.source_name in wanted
            ):
                continue
            wrapper = self.wrappers[step.source_name]
            key_local = self.mapping_module.to_local_label(
                step.source_name, step.link.via
            )
            key_field = wrapper.source_field(key_local)
            needed = set(chain.from_iterable(columns[step.source_name]))
            # Details are translated records, so the source's transform
            # rules are part of what the entry holds.
            identity = (
                step.source_name,
                self.mapping_module.transform_rules(step.source_name),
            )
            versions = ((step.source_name, wrapper.version),)
            cached = self.artifacts.setdefault(
                "enrichment", identity, versions,
                lambda: {"index": {}, "known": set(), "complete": False},
            )
            wanted[step.source_name] = (cached["index"], needed)
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
                report.incr("enrichment_cache_hits")
                continue
            ordered = tuple(sorted(missing, key=str))
            batched = self.batch_fetch and wrapper.supports(key_local, "in")
            request = self._fetch_request(
                ((key_local, "in", ordered),) if batched else (),
                purpose="enrichment" if batched else "enrichment-full",
            )
            pending.append(
                (step, wrapper, cached, missing, key_field, request, batched)
            )
        if pending:
            self._fetch_enrichment(pending, report, recorder)
        # The view keeps its own copy of the matched ids' entries: the
        # shared index keeps growing, and may be evicted, after this
        # execution, while the view may be built much later.
        return {
            source: {
                link_id: index[link_id]
                for link_id in needed
                if link_id in index
            }
            for source, (index, needed) in wanted.items()
        }

    def _fetch_enrichment(self, pending, report, recorder):
        """Fetch the enrichment records the shared cache did not hold,
        as one concurrent batch, and fold them into it."""
        replies = self._fetch_all(
            [
                (wrapper, request)
                for _step, wrapper, _cached, _missing, _key, request, _b
                in pending
            ],
            report,
            recorder=recorder,
        )
        if len(pending) > 1 and self.policy.max_workers > 1:
            report.incr("concurrent_batches")
        for (step, wrapper, cached, missing, key_field, _request,
             batched), reply in zip(pending, replies):
            if not reply.ok:
                # Enrichment detail is decoration, not correctness: a
                # degraded source leaves its link children id-only.
                self._degrade_or_raise(reply, report)
                continue
            if batched:
                report.incr("batched_fetches")
            added = {}
            for record in reply.records:
                added[record[key_field]] = link_detail(
                    self.mapping_module.translate_record(
                        step.source_name, record, wrapper
                    )
                )
            cached["index"].update(added)
            # Ids probed but absent from the source are remembered
            # too, so dangling references never re-fetch.
            cached["known"].update(missing)
            cached["known"].update(cached["index"])
            # The entry is shared with concurrent executions outside
            # the store lock: it may claim the whole source only once
            # it holds every record, or a racing execution would read
            # an empty index as complete.
            if not batched:
                cached["complete"] = True
