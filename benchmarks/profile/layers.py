"""Per-layer numbers, taken from outside the program.

Two sources, both outside ``src/``:

- the flight-recorder spans the pipeline already emits, read from
  ``IntegratedResult.trace`` of traced asks;
- timing the public calls made into each layer (``load_stores``,
  ``add_source``, ``Annoda.plan``, a store update).

:func:`exclusive_times` splits a question's wall time among span names
without double counting, so the per-stage self-times of one question
add up to its ``query`` span.  :func:`layer_probe` runs on a fresh
federation loaded from the run's snapshot and returns every per-layer
metric that does not come from the workload's own window.
"""

import gc
import statistics
from collections import defaultdict

from spec import CATALOG, request_key

from repro.core.annoda import Annoda
from repro.sources.persistence import load_stores, wrappers_for
from repro.trace.recorder import TraceRecorder
from repro.util.clock import default_clock
from repro.util.rng import DeterministicRng
from repro.util.timer import Timer

#: Span name -> per-layer metric of its self-time (ms per question).
STAGE_METRICS = {
    "query": "mediator.query.self_ms",
    "decompose": "mediator.plan.decompose_ms",
    "optimize": "mediator.plan.optimize_ms",
    "execute": "mediator.executor.execute_ms",
    "schedule:place": "mediator.scheduler.place_ms",
    "fetch": "mediator.fetch.dispatch_ms",
    "reconcile": "mediator.reconcile.self_ms",
    "navigate": "mediator.executor.navigate_ms",
    "enrichment": "mediator.executor.enrichment_ms",
}
#: Sources whose ``fetch:<Source>`` spans get a metric of their own.
FETCH_SOURCES = ("LocusLink", "GO", "OMIM", "PubMed")

#: Alternating traced/untraced passes behind the warm stage times and
#: the recorder-overhead estimate.  One keeps a traced run of
#: ``coldstart-20k`` under a minute.
WARM_PASSES = 1

#: Curation updates timed by the update probe.
UPDATES = 20


def exclusive_times(root):
    """Seconds of ``root``'s interval attributed to each span name.

    At every instant the time goes to the innermost spans open then,
    split equally when several run concurrently (the fetcher's
    per-source spans).  Children are clipped to their parent, so the
    values sum to ``root.duration``.
    """
    intervals = []

    def clip(span, low, high):
        start = min(max(span.start, low), high)
        end = min(max(span.end, start), high)
        intervals.append((start, end, span))
        for child in span.children:
            clip(child, start, end)

    clip(root, root.start, root.end)
    points = sorted({edge for start, end, _ in intervals
                     for edge in (start, end)})
    totals = defaultdict(float)
    for low, high in zip(points, points[1:]):
        active = {id(span) for start, end, span in intervals
                  if start <= low and end >= high}
        leaves = [
            span for start, end, span in intervals
            if id(span) in active
            and not any(id(child) in active for child in span.children)
        ]
        for span in leaves:
            totals[span.name] += (high - low) / len(leaves)
    return dict(totals)


def stage_profile(result):
    """One traced answer as self-times, shares, counters and the
    dominant stage."""
    root = result.trace
    self_seconds = exclusive_times(root)
    counters = defaultdict(int)
    enrichment_hits = enrichment_fetches = 0
    for span in root.walk():
        for name, value in span.counters.items():
            counters[name] += value
        if span.name == "enrichment":
            enrichment_hits += span.counters.get("enrichment_cache_hits", 0)
            enrichment_fetches += span.counters.get("batched_fetches", 0)
    query_ms = root.duration * 1e3
    return {
        "query_ms": query_ms,
        "self_ms": {name: seconds * 1e3
                    for name, seconds in sorted(self_seconds.items())},
        "share": {name: seconds / root.duration
                  for name, seconds in sorted(self_seconds.items())},
        "dominant": max(self_seconds, key=self_seconds.get),
        "counters": dict(sorted(counters.items())),
        "enrichment_hits": enrichment_hits,
        "enrichment_fetches": enrichment_fetches,
        "genes": len(result.genes),
    }


class GcPauses:
    """Collector pause time, via ``gc.callbacks``, while active."""

    def __init__(self):
        self.seconds = 0.0
        self._clock = default_clock()
        self._started = None

    def _callback(self, phase, _info):
        if phase == "start":
            self._started = self._clock.now()
        elif self._started is not None:
            self.seconds += self._clock.now() - self._started
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._callback)
        return False


def catalog_questions(annoda):
    """``(request key, question)`` for each catalog question."""
    return [
        (request_key(name, params), getattr(annoda.catalog, name)(**params))
        for name, params in CATALOG
    ]


def timed_ask(annoda, question, use_cache=False, recorder=None):
    """``Annoda.ask`` and its wall time in seconds, send to full answer."""
    with Timer() as timer:
        result = annoda.ask(question, use_cache=use_cache, recorder=recorder)
    return result, timer.elapsed


def _mean_of_medians(runs_by_question, value):
    """Mean over questions of the median of ``value(run)`` over each
    question's runs: a per-question figure robust to one slow run."""
    return statistics.fmean(
        statistics.median(value(run) for run in runs)
        for runs in runs_by_question.values()
    )


def _load(snapshot, metrics):
    """``Annoda.from_directory`` split at its two public calls."""
    with Timer() as load:
        stores = load_stores(snapshot, adopt_indexes=True)
    annoda = Annoda()
    with Timer() as register:
        for wrapper in wrappers_for(stores):
            annoda.add_source(wrapper)
    metrics["sources.persistence.load_s"] = load.elapsed
    metrics["mediator.register_s"] = register.elapsed
    metrics["sources.indexes_adopted"] = sum(
        store.fetch_stats()["index_adoptions"] for store in stores.values()
    )
    return annoda, stores


def _cold_pass(annoda, questions, check, metrics):
    """Every question's first execution, traced; the work counters."""
    cold = {}
    for key, question in questions:
        result, elapsed = timed_ask(annoda, question, recorder=TraceRecorder())
        check(key, result)
        metrics.setdefault("mediator.first_query_s", elapsed)
        cold[key] = stage_profile(result)
    totals = defaultdict(int)
    for profile in cold.values():
        for name, value in profile["counters"].items():
            totals[name] += value
    genes = sum(profile["genes"] for profile in cold.values())
    metrics["sources.rows"] = totals["rows"]
    metrics["sources.index_hits"] = totals["index_hits"]
    metrics["sources.scan_fetches"] = totals["scan_fetches"]
    metrics["sources.indexes_rebuilt"] = totals["indexes_rebuilt"]
    metrics["sources.rows_per_gene"] = totals["rows"] / max(genes, 1)
    metrics["mediator.reconcile.anchors_considered"] = (
        totals["anchors_considered"]
    )
    metrics["mediator.reconcile.survival_ratio"] = (
        totals["anchors_returned"] / max(totals["anchors_considered"], 1)
    )
    metrics["mediator.fetch.retries"] = totals["retries"]
    return cold


def _warm_passes(annoda, questions, check, metrics):
    """An untraced and a traced ask of each question, back to back (which
    goes first flips from question to question and pass to pass), so the
    recorder's cost is measured against the same warm state; the traced
    ones give the warm stage times."""
    warm = defaultdict(list)
    untraced = defaultdict(list)
    traced = defaultdict(list)
    with GcPauses() as pauses:
        for repeat in range(WARM_PASSES):
            for index, (key, question) in enumerate(questions):
                flip = (repeat + index) % 2 == 1
                for is_traced in (flip, not flip):
                    gc_before = pauses.seconds
                    result, elapsed = timed_ask(
                        annoda, question,
                        recorder=TraceRecorder() if is_traced else None,
                    )
                    check(key, result)
                    if not is_traced:
                        untraced[key].append(elapsed)
                        continue
                    traced[key].append(elapsed)
                    profile = stage_profile(result)
                    profile["gc_ms"] = (pauses.seconds - gc_before) * 1e3
                    warm[key].append(profile)
    for name, metric in STAGE_METRICS.items():
        metrics[metric] = _mean_of_medians(
            warm, lambda run, name=name: run["self_ms"].get(name, 0.0)
        )
    for source in FETCH_SOURCES:
        metrics[f"wrappers.fetch_ms.{source}"] = _mean_of_medians(
            warm,
            lambda run, name=f"fetch:{source}": run["self_ms"].get(name, 0.0),
        )
    runs = [run for profiles in warm.values() for run in profiles]
    hits = sum(run["enrichment_hits"] for run in runs)
    fetched = sum(run["enrichment_fetches"] for run in runs)
    metrics["mediator.executor.enrichment_cache_hit_ratio"] = (
        hits / max(hits + fetched, 1)
    )
    untraced_total = sum(statistics.median(v) for v in untraced.values())
    traced_total = sum(statistics.median(v) for v in traced.values())
    metrics["trace.overhead_pct"] = (
        (traced_total - untraced_total) / untraced_total * 100.0
    )
    metrics["runtime.gc_ms"] = _mean_of_medians(
        warm, lambda run: run["gc_ms"]
    )
    asked = sum(map(sum, untraced.values())) + sum(map(sum, traced.values()))
    metrics["runtime.gc_pause_share"] = pauses.seconds / asked
    return warm


def _plan_calls(annoda, questions, metrics):
    """``Annoda.plan`` (decompose + optimize + lower) timed per call."""
    per_question = {}
    for key, question in questions:
        samples = []
        for _ in range(3):
            with Timer() as timer:
                annoda.plan(question)
            samples.append(timer.elapsed * 1e3)
        per_question[key] = samples
    metrics["mediator.plan.call_ms"] = _mean_of_medians(
        per_question, lambda sample: sample
    )


def _updates(stores, seed, metrics):
    """LocusLink curation writes (remove, then re-add the same record),
    timed at the store's public calls."""
    store = stores["LocusLink"]
    rng = DeterministicRng(seed).substream("profile-update-probe")
    update_us = []
    for locus_id in rng.sample(store.locus_ids(), UPDATES):
        with Timer() as timer:
            record = store.get(locus_id)
            store.remove(locus_id)
            store.add(record)
        update_us.append(timer.elapsed * 1e6)
    metrics["sources.update_us"] = statistics.median(update_us)


def layer_probe(snapshot, seed, check):
    """Per-layer metrics of a fresh federation loaded from ``snapshot``.

    ``check(key, result)`` validates every answer.  Returns
    ``(metrics, stages)``: the metric values and, per catalog question,
    its cold and warm stage breakdowns with their dominant stages.
    """
    metrics = {}
    annoda, stores = _load(snapshot, metrics)
    questions = catalog_questions(annoda)
    cold = _cold_pass(annoda, questions, check, metrics)
    warm = _warm_passes(annoda, questions, check, metrics)
    _plan_calls(annoda, questions, metrics)
    _updates(stores, seed, metrics)
    stages = {
        key: {
            "cold": cold[key],
            "warm": warm[key][-1],
            "dominant_cold": cold[key]["dominant"],
            "dominant_warm": warm[key][-1]["dominant"],
        }
        for key, _question in questions
    }
    return metrics, stages
