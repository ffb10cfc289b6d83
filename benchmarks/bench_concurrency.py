"""Concurrency benchmark: the federated fetch boundary under load.

Each per-source fetch is wrapped in a :class:`FlakyWrapper` that
sleeps a fixed latency (emulating a remote annotation database's
round-trip) and optionally injects deterministic faults.  The harness
then answers a two-link conditioned query (five mutually independent
per-source fetches: anchor, two link steps, two enrichment details)
while sweeping the federation's worker count x the injected fault
rate, asserting:

1. the concurrent configurations return gene-for-gene identical
   answers to the sequential one (with retries absorbing the faults);
2. the concurrent wall-clock beats the sequential wall-clock at the
   2000-loci corpus (the acceptance bar);
3. a blacked-out source under a degrading policy yields a *partial*
   answer whose report marks the source degraded — no exception;
4. with every source served by a two-replica set, a blacked-out GO
   replica fails over to its sibling: the answer stays complete and
   nothing degrades.

Writes ``benchmarks/results/concurrency.txt`` and the
machine-readable ``BENCH_concurrency.json`` at the repo root.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_concurrency.py --smoke
"""

import argparse
import json
import pathlib

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.decompose import Condition
from repro.mediator.fetch import FederationPolicy, FlakyWrapper
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.util.text import table
from repro.util.timer import Timer
from repro.wrappers import default_wrappers

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL = {
    "sizes": (500, 2000),
    "workers": (1, 2, 4, 8),
    "fault_rates": (0.0, 0.4),
    "latency": 0.05,
    "rounds": 2,
    "min_speedup": 1.3,
}
SMOKE = {
    "sizes": (200,),
    "workers": (1, 4),
    "fault_rates": (0.0, 0.4),
    "latency": 0.01,
    "rounds": 1,
    "min_speedup": 1.05,
}

#: Retry budget generous enough that every fault-rate sweep converges.
RETRIES = 8

#: Wrappers per source in the dead-replica scenario.
REPLICAS = 2


def _bench_query():
    """Two conditioned include links: the anchor fetch, both link
    fetches and both enrichment fetches are mutually independent, so
    the concurrent boundary has real work to overlap."""
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(
                    Condition("Aspect", "=", "molecular_function"),
                ),
            ),
            LinkConstraint(
                "OMIM",
                "include",
                via="DiseaseID",
                conditions=(Condition("Inheritance", "=", "X-linked"),),
            ),
        ),
    )


def _corpus(loci):
    return AnnotationCorpus.generate(
        seed=11,
        parameters=CorpusParameters(
            loci=loci,
            go_terms=max(60, loci // 4),
            omim_entries=max(30, loci // 8),
        ),
    )


def _mediator(corpus, policy, latency=0.0, fault_rate=0.0, blackout=()):
    """A fresh federation whose wrappers emulate remote sources."""
    mediator = Mediator(federation=policy)
    for index, wrapper in enumerate(default_wrappers(corpus)):
        mediator.register_wrapper(
            FlakyWrapper(
                wrapper,
                latency=latency,
                error_rate=fault_rate,
                blackout=wrapper.name in blackout,
                # Seeds chosen so the fault-rate sweep actually injects
                # failures within each wrapper's first few draws.
                seed=2003 + 4 * index,
            )
        )
    return mediator


def _run_once(corpus, workers, fault_rate, latency):
    """(seconds, result) for one cold federated execution."""
    policy = FederationPolicy(
        max_workers=workers,
        retries=RETRIES if fault_rate else 0,
        backoff=0.0,
    )
    mediator = _mediator(
        corpus, policy, latency=latency, fault_rate=fault_rate
    )
    query = _bench_query()
    with Timer() as timer:
        result = mediator.query(query, use_cache=False)
    return timer.elapsed, result


def _best_of(rounds, run):
    best_seconds, best_result = float("inf"), None
    for _ in range(rounds):
        seconds, result = run()
        if seconds < best_seconds:
            best_seconds, best_result = seconds, result
    return best_seconds, best_result


def _sweep(config, log=print):
    rows, trajectory = [], []
    for loci in config["sizes"]:
        corpus = _corpus(loci)
        baseline_ids = None
        sequential_clean = None
        for fault_rate in config["fault_rates"]:
            for workers in config["workers"]:
                seconds, result = _best_of(
                    config["rounds"],
                    lambda w=workers, r=fault_rate: _run_once(
                        corpus, w, r, config["latency"]
                    ),
                )
                if baseline_ids is None:
                    baseline_ids = result.gene_ids()
                assert result.gene_ids() == baseline_ids, (
                    f"answer drifted at workers={workers} "
                    f"fault_rate={fault_rate}"
                )
                assert result.report.ok, "no degradation expected here"
                if fault_rate == 0.0 and workers == 1:
                    sequential_clean = seconds
                speedup = (
                    sequential_clean / seconds
                    if sequential_clean and fault_rate == 0.0
                    else None
                )
                rows.append(
                    [
                        loci,
                        workers,
                        f"{fault_rate:.1f}",
                        f"{seconds * 1e3:.1f}",
                        result.report.counters["retries"],
                        f"{speedup:.2f}x" if speedup else "-",
                    ]
                )
                trajectory.append(
                    {
                        "loci": loci,
                        "workers": workers,
                        "fault_rate": fault_rate,
                        "seconds": seconds,
                        "retries": result.report.counters["retries"],
                        "concurrent_batches": (
                            result.report.counters["concurrent_batches"]
                        ),
                        "genes": len(result),
                        "speedup_vs_sequential": speedup,
                    }
                )
                log(
                    f"  loci={loci} workers={workers} "
                    f"faults={fault_rate:.1f}: {seconds * 1e3:.1f} ms"
                )
        # The acceptance bar: at the largest corpus, the widest clean
        # configuration must beat the sequential one on wall-clock.
        if loci == max(config["sizes"]):
            widest = [
                point for point in trajectory
                if point["loci"] == loci
                and point["fault_rate"] == 0.0
                and point["workers"] == max(config["workers"])
            ][0]
            speedup = sequential_clean / widest["seconds"]
            assert speedup >= config["min_speedup"], (
                f"concurrent speedup only {speedup:.2f}x "
                f"(need >= {config['min_speedup']}x)"
            )
            log(
                f"  concurrency speedup at {loci} loci: {speedup:.2f}x "
                f"({max(config['workers'])} workers vs sequential)"
            )
    return rows, trajectory


def _blackout_scenario(config, log=print):
    """One source fully dark under a degrading policy: the query still
    answers, partially, and says so."""
    corpus = _corpus(min(config["sizes"]))
    policy = FederationPolicy(
        max_workers=max(config["workers"]), on_failure="degrade"
    )
    mediator = _mediator(
        corpus, policy, latency=config["latency"], blackout=("GO",)
    )
    query = _bench_query()
    result = mediator.query(query, use_cache=False)
    assert "GO" in result.report.degraded, "GO must be marked degraded"
    assert not result.report.ok
    log(
        f"  blackout: partial answer of {len(result)} genes, "
        f"degraded={list(result.report.degraded)}"
    )
    return {
        "degraded": list(result.report.degraded),
        "genes": len(result),
        "sources": {
            name: report.status
            for name, report in result.report.sources.items()
        },
    }


def _replicated_mediator(corpus, config, dead_replica=None):
    """A fresh federation of two-replica sets whose wrappers emulate
    remote sources; ``dead_replica`` blacks out that GO replica."""
    mediator = Mediator(
        federation=FederationPolicy(max_workers=max(config["workers"]))
    )
    groups = [default_wrappers(corpus) for _ in range(REPLICAS)]
    for replica_wrappers in zip(*groups):
        mediator.register_replicas(
            [
                FlakyWrapper(
                    wrapper,
                    latency=config["latency"],
                    blackout=index == dead_replica and wrapper.name == "GO",
                )
                for index, wrapper in enumerate(replica_wrappers)
            ]
        )
    return mediator


def _dead_replica_scenario(config, log=print):
    """The primary GO replica dark: its sibling absorbs every GO
    fetch, the answer stays complete and nothing degrades."""
    corpus = _corpus(min(config["sizes"]))
    query = _bench_query()
    baseline = _replicated_mediator(corpus, config).query(
        query, use_cache=False
    )
    mediator = _replicated_mediator(corpus, config, dead_replica=0)
    result = mediator.query(query, use_cache=False)
    assert result.gene_ids() == baseline.gene_ids()
    assert result.report.ok
    assert result.report.counters["replica_failovers"] > 0
    assert result.report.degraded == ()
    failovers = result.report.counters["replica_failovers"]
    log(
        f"  dead replica: complete answer of {len(result)} genes, "
        f"{failovers} failover(s), none degraded"
    )
    return {
        "replicas": REPLICAS,
        "genes": len(result),
        "replica_failovers": failovers,
        "degraded": list(result.report.degraded),
    }


def _render(rows, blackout, dead_replica):
    rendered = table(
        ["loci", "workers", "fault rate", "ms", "retries", "speedup"],
        rows,
    )
    return (
        "Federated fetch concurrency: workers x fault-rate sweep\n"
        f"(per-fetch injected latency emulates remote sources; "
        "identical answers asserted across all configurations)\n\n"
        + rendered
        + "\n\nBlackout scenario (GO dark, degrading policy): "
        + f"partial answer, degraded={blackout['degraded']}\n"
        + f"Dead-replica scenario ({dead_replica['replicas']} replicas, "
        + "primary GO replica dark): complete answer, "
        + f"{dead_replica['replica_failovers']} failover(s), "
        + f"degraded={dead_replica['degraded']}\n"
    )


def _write(rows, trajectory, blackout, dead_replica, results_dir):
    results_dir.mkdir(exist_ok=True)
    artifact = _render(rows, blackout, dead_replica)
    (results_dir / "concurrency.txt").write_text(
        artifact, encoding="utf-8"
    )
    payload = {
        "benchmark": "concurrency",
        "sweep": trajectory,
        "blackout": blackout,
        "dead_replica": dead_replica,
    }
    (REPO_ROOT / "BENCH_concurrency.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return artifact


def test_concurrency_sweep(results_dir):
    rows, trajectory = _sweep(FULL, log=lambda *_: None)
    blackout = _blackout_scenario(FULL, log=lambda *_: None)
    dead = _dead_replica_scenario(FULL, log=lambda *_: None)
    _write(rows, trajectory, blackout, dead, results_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced corpus and sweep for CI",
    )
    arguments = parser.parse_args(argv)
    mode = "smoke" if arguments.smoke else "full"
    config = SMOKE if arguments.smoke else FULL
    print(
        f"concurrency bench ({mode}): "
        f"sizes={config['sizes']} workers={config['workers']} "
        f"fault_rates={config['fault_rates']}"
    )
    rows, trajectory = _sweep(config)
    blackout = _blackout_scenario(config)
    dead = _dead_replica_scenario(config)
    artifact = _write(rows, trajectory, blackout, dead, RESULTS_DIR)
    print()
    print(artifact)


if __name__ == "__main__":
    main()
