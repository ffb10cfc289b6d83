"""Fetch-path benchmark: indexed vs scan, batched vs N+1, cache hits.

The federated fetch path bottoms out in ``DataSource.native_query``;
this harness proves the layered optimisation (source equality indexes,
executor batching, stage artifacts, mediator enrichment caches) pays
off:

1. **equality fetch** — one ``LocusID =`` native query, equality index
   on vs off, swept over corpus size;
2. **semijoin execution** — the selective-link semijoin query executed
   with batched ``in`` anchor fetch + indexes vs the seed's per-id
   scan loop (N+1);
3. **flagship artifact repeat** — the Figure-5(b) query cold vs
   answered from a warm content-addressed stage artifact store;
4. **flagship counters** — the Figure-5(b) query run through the
   mediator, asserting nonzero ``index_hits``/``batched_fetches`` on
   the first execution and ``enrichment_cache_hits`` on the repeat.

Writes ``benchmarks/results/fetchpath.txt`` and the machine-readable
trajectory ``BENCH_fetchpath.json`` at the repo root.  Run directly
(``python benchmarks/bench_fetchpath.py [--smoke]``); ``--smoke`` is
the CI gate and writes nothing.
"""

import argparse
import gc
import json
import pathlib
import sys

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from benchmarks.conftest import write_artifact
from repro.mediator import (
    ArtifactStore,
    GlobalQuery,
    LinkConstraint,
    Mediator,
    OptimizerOptions,
)
from repro.mediator.decompose import Condition
from repro.mediator.executor import Executor
from repro.questions.catalog import QuestionCatalog
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition
from repro.util.text import table
from repro.util.timer import Timer
from repro.wrappers import default_wrappers

SIZES = (100, 500, 1000, 2000)
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Equality-fetch repetitions per timing sample (amortizes timer noise).
EQ_QUERIES = 50
#: Best-of rounds per measurement.
ROUNDS = 3
#: The acceptance bar every gated speedup must clear.
MIN_SPEEDUP = 5.0


def _corpus(loci):
    return AnnotationCorpus.generate(
        seed=11,
        parameters=CorpusParameters(
            loci=loci,
            go_terms=max(60, loci // 4),
            omim_entries=max(30, loci // 8),
        ),
    )


def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        # Collect leftovers from the previous round outside the timed
        # region, so a GC pause triggered by *earlier* allocations
        # cannot land inside a later measurement and flip a comparison.
        gc.collect()
        with Timer() as timer:
            run()
        best = min(best, timer.elapsed)
    return best


def _semijoin_query():
    """Anchor unconditioned; the GO link is highly selective, so the
    optimizer lets it drive the anchor fetch by link-id."""
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(Condition("Title", "contains", "kinase"),),
            ),
        ),
    )


def _mediator(corpus, **options):
    mediator = Mediator(optimizer_options=OptimizerOptions(**options))
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    return mediator


def _set_indexes(corpus, enabled):
    for store in (corpus.locuslink, corpus.go, corpus.omim):
        store.use_indexes = enabled


def _sweep_equality(store):
    """(scan_seconds, indexed_seconds) per EQ_QUERIES point lookups."""
    locus_ids = store.locus_ids()
    probes = [
        locus_ids[(index * 37) % len(locus_ids)]
        for index in range(EQ_QUERIES)
    ]

    def run(use_index):
        for locus_id in probes:
            store.native_query(
                [NativeCondition("LocusID", "=", locus_id)],
                use_index=use_index,
            )

    run(True)  # warm: builds the index outside the timed region
    indexed = _best_of(ROUNDS, lambda: run(True))
    scan = _best_of(ROUNDS, lambda: run(False))
    return scan, indexed


def _sweep_semijoin(corpus):
    """(n_plus_1_seconds, batched_seconds) for the semijoin query."""
    mediator = _mediator(corpus, enable_semijoin=True)
    query = _semijoin_query()
    plan = mediator.plan(query)
    assert plan.anchor.semijoin is not None, "semijoin must drive the anchor"

    def run(batch, indexes):
        _set_indexes(corpus, indexes)
        executor = Executor(
            mediator._wrappers,
            mediator.mapping_module,
            mediator.reconciler,
            enrichment_cache={},
            batch_fetch=batch,
        )
        return executor.execute(plan, query, enrich_links=False)

    fast_result = run(batch=True, indexes=True)
    slow_result = run(batch=False, indexes=False)
    assert fast_result.gene_ids() == slow_result.gene_ids()
    assert fast_result.stats.batched_fetches > 0
    batched = _best_of(ROUNDS, lambda: run(batch=True, indexes=True))
    n_plus_1 = _best_of(ROUNDS, lambda: run(batch=False, indexes=False))
    _set_indexes(corpus, True)
    return n_plus_1, batched


def _artifact_flagship():
    """Cold vs artifact-warm latency for the flagship query: the warm
    repeat must reuse stages (``artifact_hits > 0``) and answer at
    least MIN_SPEEDUP times faster than the cold run."""
    corpus = _corpus(2000)
    store = ArtifactStore()
    mediator = Mediator(artifacts=store)
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    query = QuestionCatalog.figure5b().to_global_query()
    with Timer() as cold_timer:
        cold = mediator.query(query, use_cache=False)
    warm = mediator.query(query, use_cache=False)
    warm_time = _best_of(
        ROUNDS, lambda: mediator.query(query, use_cache=False)
    )
    assert warm.gene_ids() == cold.gene_ids()
    assert warm.stats.artifact_hits > 0
    ratio = cold_timer.elapsed / max(warm_time, 1e-9)
    assert ratio >= MIN_SPEEDUP, (
        f"artifact-warm repeat only {ratio:.1f}x faster than cold"
    )
    return {
        "cold_s": cold_timer.elapsed,
        "warm_s": warm_time,
        "speedup": ratio,
        "warm_artifact_hits": warm.stats.artifact_hits,
        "cold_artifact_misses": cold.stats.artifact_misses,
    }


def test_fetchpath_sweep(results_dir):
    _run(results_dir, log=lambda *_: None)


def _sweep_point(loci):
    """Equality and semijoin timings at one corpus size."""
    corpus = _corpus(loci)
    scan, indexed = _sweep_equality(corpus.locuslink)
    n_plus_1, batched = _sweep_semijoin(corpus)
    return {
        "loci": loci,
        "equality_scan_s": scan,
        "equality_indexed_s": indexed,
        "equality_speedup": scan / max(indexed, 1e-9),
        "semijoin_n_plus_1_s": n_plus_1,
        "semijoin_batched_s": batched,
        "semijoin_speedup": n_plus_1 / max(batched, 1e-9),
    }


def _assert_speedups(point):
    """The acceptance bar: indexed/batched at least MIN_SPEEDUP times
    faster than the seed's scan/N+1 path."""
    for name in ("equality_speedup", "semijoin_speedup"):
        assert point[name] >= MIN_SPEEDUP, (
            f"{name} only {point[name]:.1f}x at {point['loci']} loci"
        )


def _run(results_dir, log=print):
    rows = []
    trajectory = []
    for loci in SIZES:
        log(f"fetch-path sweep: {loci} loci ...")
        point = _sweep_point(loci)
        rows.append(
            [
                loci,
                f"{point['equality_scan_s'] * 1e3:.2f}",
                f"{point['equality_indexed_s'] * 1e3:.2f}",
                f"{point['equality_speedup']:.1f}x",
                f"{point['semijoin_n_plus_1_s'] * 1e3:.2f}",
                f"{point['semijoin_batched_s'] * 1e3:.2f}",
                f"{point['semijoin_speedup']:.1f}x",
            ]
        )
        trajectory.append(point)
        if loci == max(SIZES):
            _assert_speedups(point)

    flagship = _flagship_counters()
    log("artifact flagship: cold vs warm ...")
    artifact_flagship = _artifact_flagship()

    rendered = table(
        [
            "loci",
            f"eq scan ms/{EQ_QUERIES}",
            f"eq index ms/{EQ_QUERIES}",
            "eq speedup",
            "semijoin N+1 ms",
            "semijoin batch ms",
            "semijoin speedup",
        ],
        rows,
    )
    counter_lines = "\n".join(
        f"  {name}: {value}" for name, value in sorted(flagship.items())
    )
    artifact = (
        "Fetch-path optimisation: indexed vs scan, batched vs N+1\n"
        "(identical answers asserted between fast and slow paths)\n\n"
        + rendered
        + "\n\nFlagship artifact repeat: "
        + f"cold {artifact_flagship['cold_s'] * 1e3:.1f} ms, "
        + f"warm {artifact_flagship['warm_s'] * 1e3:.1f} ms "
        + f"({artifact_flagship['speedup']:.1f}x, "
        + f"{artifact_flagship['warm_artifact_hits']} stage hits)\n"
        + "\nFigure-5(b) flagship query counters "
        "(first run / cached repeat):\n"
        + counter_lines
        + "\n"
    )
    write_artifact(results_dir, "fetchpath.txt", artifact)
    (REPO_ROOT / "BENCH_fetchpath.json").write_text(
        json.dumps(
            {
                "benchmark": "fetchpath",
                "sweep": trajectory,
                "artifact_flagship": artifact_flagship,
                "flagship": flagship,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return artifact


def _flagship_counters():
    """Run Figure 5(b) through a default mediator twice and collect the
    fetch-path counters the acceptance criteria name."""
    corpus = _corpus(500)
    mediator = _mediator(corpus)
    query = QuestionCatalog.figure5b().to_global_query()
    first = mediator.query(query, use_cache=False)
    repeat = mediator.query(query, use_cache=False)
    assert first.gene_ids() == repeat.gene_ids()
    assert first.stats.index_hits > 0
    assert first.stats.batched_fetches > 0
    assert repeat.stats.enrichment_cache_hits > 0
    return {
        "first_index_hits": first.stats.index_hits,
        "first_scan_fetches": first.stats.scan_fetches,
        "first_batched_fetches": first.stats.batched_fetches,
        "first_enrichment_cache_hits": first.stats.enrichment_cache_hits,
        "repeat_index_hits": repeat.stats.index_hits,
        "repeat_scan_fetches": repeat.stats.scan_fetches,
        "repeat_batched_fetches": repeat.stats.batched_fetches,
        "repeat_enrichment_cache_hits": repeat.stats.enrichment_cache_hits,
    }


def _smoke():
    """The CI gate: at the largest sweep size the equality index and
    the batched semijoin must each beat scan / N+1 by MIN_SPEEDUP, and
    the flagship repeat must answer MIN_SPEEDUP times faster from stage
    artifacts."""
    point = _sweep_point(max(SIZES))
    _assert_speedups(point)
    flagship = _artifact_flagship()
    print(
        f"smoke ok at {point['loci']} loci: equality index "
        f"{point['equality_speedup']:.1f}x, batched semijoin "
        f"{point['semijoin_speedup']:.1f}x, flagship artifact repeat "
        f"{flagship['speedup']:.1f}x "
        f"({flagship['warm_artifact_hits']} stage hits)"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="speedup gates only, nothing written (CI)",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        _smoke()
        return
    from benchmarks.conftest import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    print(_run(RESULTS_DIR))


if __name__ == "__main__":
    main()
