"""Cold-start benchmark: time-to-first-indexed-answer from a persisted
snapshot versus a lazy index rebuild.

A federation restarting from flat files pays the same two costs either
way — reading and parsing the dumps.  What the persisted index
snapshot removes is the third cost: building every equality index
before the first indexed probe can answer from a hash lookup.  The
harness saves a corpus (five sources, all fields indexed), then for
each size measures the indexed-probe phase twice over freshly parsed
stores:

- **lazy**: probe one ``=`` condition per indexed field per source;
  the first probe of each field pays the full extent scan that builds
  its index;
- **adopted**: :func:`~repro.sources.persistence.adopt_persisted_indexes`
  installs the snapshot, then the same probes run as dict lookups.

Answers are asserted oid-for-oid identical between the two paths and
against the original in-memory stores, and the adopted path is
asserted to have rebuilt **zero** indexes (``fetch_stats``).  The
acceptance bar: adopted beats lazy by ``min_speedup`` at the largest
corpus.

Writes ``benchmarks/results/coldstart.txt`` and the machine-readable
``BENCH_coldstart.json`` at the repo root; ``--smoke`` prints its
table and writes nothing.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_coldstart.py --smoke
"""

import argparse
import json
import pathlib
import tempfile

from repro.sources import AnnotationCorpus, CorpusParameters, NativeCondition
from repro.sources.persistence import adopt_persisted_indexes, load_stores, save_corpus
from repro.util.timer import Timer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL = {
    "sizes": (2000, 10000),
    "rounds": 3,
    "min_speedup": 3.0,
}
SMOKE = {
    "sizes": (300,),
    "rounds": 1,
    # Tiny extents keep the absolute gap small; the smoke run guards
    # the machinery (identity + zero rebuilds), not the headline ratio.
    "min_speedup": 1.0,
}


def _corpus(loci):
    return AnnotationCorpus.generate(
        seed=23,
        parameters=CorpusParameters(
            loci=loci,
            go_terms=max(60, loci // 4),
            omim_entries=max(30, loci // 8),
        ),
    )


def _originals(corpus, loci):
    """All five stores, citations wired before any index is built."""
    citations = corpus.make_citation_store(count=max(40, loci // 2))
    proteins = corpus.make_protein_store()
    return {
        store.name: store
        for store in list(corpus.sources()) + [citations, proteins]
    }


def _probe_plan(originals):
    """One present-value ``=`` probe per indexed field per source —
    the first indexed question a restarted federation would face."""
    plan = []
    for name, store in sorted(originals.items()):
        for field in store.indexed_fields():
            value = None
            for record in store.records():
                candidate = record.get(field)
                if isinstance(candidate, (list, tuple)):
                    candidate = candidate[0] if candidate else None
                if candidate is not None:
                    value = candidate
                    break
            if value is not None:
                plan.append((name, NativeCondition(field, "=", value)))
    return plan


def _run_probes(stores, plan):
    answers = []
    with Timer() as timer:
        for name, condition in plan:
            answers.append(stores[name].native_query([condition]))
    return timer.elapsed, answers


def _measure(directory, plan, rounds, adopt):
    """Best-of-``rounds`` indexed-probe phase over freshly parsed
    stores; with ``adopt`` the timed phase includes installing the
    persisted snapshot (that *is* the cold-start cost being bought)."""
    best_seconds, best_answers, best_stores = float("inf"), None, None
    for _ in range(rounds):
        stores = load_stores(directory, adopt_indexes=False)
        with Timer() as timer:
            if adopt:
                adopted = adopt_persisted_indexes(directory, stores)
                assert all(adopted.values()), f"adoption failed: {adopted}"
            probe_seconds, answers = _run_probes(stores, plan)
        seconds = timer.elapsed if adopt else probe_seconds
        if seconds < best_seconds:
            best_seconds, best_answers, best_stores = (
                seconds, answers, stores,
            )
    return best_seconds, best_answers, best_stores


def _sweep(config, log=print):
    trajectory = []
    for loci in config["sizes"]:
        corpus = _corpus(loci)
        originals = _originals(corpus, loci)
        plan = _probe_plan(originals)
        expected = [
            originals[name].native_query([condition])
            for name, condition in plan
        ]
        with tempfile.TemporaryDirectory() as directory:
            save_corpus(
                corpus,
                directory,
                citations=originals["PubMed"],
                proteins=originals["SwissProt"],
            )
            lazy_seconds, lazy_answers, lazy_stores = _measure(
                directory, plan, config["rounds"], adopt=False
            )
            adopted_seconds, adopted_answers, adopted_stores = _measure(
                directory, plan, config["rounds"], adopt=True
            )
        assert lazy_answers == expected, "lazy path answer drifted"
        assert adopted_answers == expected, "adopted path answer drifted"
        rebuilt = sum(
            store.fetch_stats()["index_builds"]
            for store in adopted_stores.values()
        )
        assert rebuilt == 0, f"adopted path rebuilt {rebuilt} index(es)"
        assert all(
            store.fetch_stats()["index_builds"] > 0
            for store in lazy_stores.values()
        ), "lazy path must actually pay the rebuilds"
        speedup = lazy_seconds / adopted_seconds
        trajectory.append(
            {
                "loci": loci,
                "probes": len(plan),
                "lazy_seconds": lazy_seconds,
                "adopted_seconds": adopted_seconds,
                "speedup": speedup,
                "indexes_rebuilt_lazy": sum(
                    store.fetch_stats()["index_builds"]
                    for store in lazy_stores.values()
                ),
                "indexes_adopted": sum(
                    store.fetch_stats()["index_adoptions"]
                    for store in adopted_stores.values()
                ),
            }
        )
        log(
            f"  loci={loci} probes={len(plan)}: lazy "
            f"{lazy_seconds * 1e3:.1f} ms, adopted "
            f"{adopted_seconds * 1e3:.1f} ms ({speedup:.1f}x)"
        )
    largest = trajectory[-1]
    assert largest["speedup"] >= config["min_speedup"], (
        f"cold-start speedup only {largest['speedup']:.2f}x at "
        f"{largest['loci']} loci (need >= {config['min_speedup']}x)"
    )
    return trajectory


def _render(trajectory):
    from repro.util.text import table

    rows = [
        [
            point["loci"],
            point["probes"],
            f"{point['lazy_seconds'] * 1e3:.1f}",
            f"{point['adopted_seconds'] * 1e3:.1f}",
            f"{point['speedup']:.1f}x",
            point["indexes_adopted"],
        ]
        for point in trajectory
    ]
    return (
        "Cold start: time-to-first-indexed-answer, lazy rebuild vs "
        "persisted snapshot\n(identical answers asserted; adopted path "
        "rebuilds zero indexes)\n\n"
        + table(
            ["loci", "probes", "lazy ms", "adopted ms", "speedup",
             "indexes adopted"],
            rows,
        )
        + "\n"
    )


def _write(trajectory, results_dir):
    results_dir.mkdir(exist_ok=True)
    artifact = _render(trajectory)
    (results_dir / "coldstart.txt").write_text(artifact, encoding="utf-8")
    (REPO_ROOT / "BENCH_coldstart.json").write_text(
        json.dumps(
            {"benchmark": "coldstart", "sweep": trajectory},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return artifact


def test_coldstart_sweep(results_dir):
    trajectory = _sweep(FULL, log=lambda *_: None)
    _write(trajectory, results_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced corpus for CI; prints the table, writes nothing",
    )
    arguments = parser.parse_args(argv)
    config = SMOKE if arguments.smoke else FULL
    print(
        f"cold-start bench ({'smoke' if arguments.smoke else 'full'}): "
        f"sizes={config['sizes']}"
    )
    trajectory = _sweep(config)
    artifact = (
        _render(trajectory)
        if arguments.smoke
        else _write(trajectory, RESULTS_DIR)
    )
    print()
    print(artifact)


if __name__ == "__main__":
    main()
