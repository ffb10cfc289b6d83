"""Self-test of the profile benchmark: ``pytest benchmarks/profile``.

Runs the whole benchmark twice in ``--quick`` mode (500-loci corpora,
3 s windows, one untraced and one traced run per workload) and checks
what a later change relies on when it quotes these numbers:

- every metric ``BENCHMARK.json`` names is reported, with its unit, by
  every workload;
- each question's per-stage self-times add up to its ``query`` span;
- work counters repeat exactly between two runs of the same seed;
- ``compare.py`` refuses result files it cannot compare;
- the one-run form prints the contract's result object last, and
  fails without printing one where the sources are missing.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from run import contract_line  # noqa: E402
from spec import BENCHMARK_FILE, PROFILE_ONLY, load_benchmark  # noqa: E402

#: Layer metrics that count work; they must not depend on timing.
COUNT_METRICS = (
    "sources.rows",
    "sources.index_hits",
    "sources.scan_fetches",
    "sources.indexes_rebuilt",
    "sources.indexes_adopted",
    "mediator.reconcile.anchors_considered",
    "mediator.fetch.retries",
)


def _run(*arguments, root=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/profile/run.py", *arguments],
        capture_output=True, text=True, cwd=root, timeout=900,
    )


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    results = []
    for attempt in ("first", "second"):
        out = tmp_path_factory.mktemp(attempt) / "result.json"
        finished = _run("--quick", "--seed", "7", "--out", str(out))
        assert finished.returncode == 0, finished.stdout + finished.stderr
        results.append(json.loads(out.read_text()))
    return results


def _traced_runs(result):
    traced = {name: entry["trace"]
              for name, entry in result["workloads"].items()}
    traced.update(result["profiles"])
    return traced


def test_every_metric_reported_with_its_unit(quick_results):
    benchmark = load_benchmark()
    result = quick_results[0]
    assert set(result["profiles"]) == set(PROFILE_ONLY)
    checked = [
        (dict(entry["runs"][0], layers={}), entry["trace"])
        for entry in (result["workloads"][workload["name"]]
                      for workload in benchmark["workloads"])
    ]
    checked += [(profile, profile) for profile in result["profiles"].values()]
    for run, traced in checked:
        for record, trace, specs in (
            (run, 0, benchmark["end_to_end"]),
            (traced, 1, benchmark["per_layer"]),
        ):
            line = contract_line(record, trace)
            assert line["correct"], record["errors"]
            assert line["attempted"] >= 1
            for spec in specs:
                metric = line["metrics"][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert isinstance(metric["value"], (int, float)), spec
        assert run["metrics"]["error_rate"] == 0


def test_stage_self_times_sum_to_query_span(quick_results):
    for traced in _traced_runs(quick_results[0]).values():
        for question, stages in traced["stages"].items():
            for phase in ("cold", "warm"):
                profile = stages[phase]
                total = sum(profile["self_ms"].values())
                assert total == pytest.approx(
                    profile["query_ms"], rel=0.01
                ), (question, phase)


def test_work_counters_repeat_exactly(quick_results):
    first, second = (_traced_runs(result) for result in quick_results)
    assert set(first) == set(second)
    for name in first:
        for metric in COUNT_METRICS:
            assert first[name]["layers"][metric] == (
                second[name]["layers"][metric]
            ), (name, metric)


def test_compare_refuses_what_it_cannot_compare(quick_results, tmp_path):
    first, second = quick_results
    assert compare.incompatibilities(first, second) == []

    def refused(candidate):
        paths = []
        for name, result in (("a.json", first), ("b.json", candidate)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(result))
        assert compare.incompatibilities(first, candidate)
        return compare.main([str(path) for path in paths]) == 2

    dropped = copy.deepcopy(second)
    dropped["workloads"].pop(next(iter(dropped["workloads"])))
    assert refused(dropped)
    longer = dict(copy.deepcopy(second), seconds=second["seconds"] + 1)
    assert refused(longer)
    wrong = copy.deepcopy(second)
    next(iter(wrong["workloads"].values()))["runs"][0]["failed"] = 1
    assert refused(wrong)
    wrong_trace = copy.deepcopy(second)
    next(iter(wrong_trace["profiles"].values()))["failed"] = 2
    assert refused(wrong_trace)


def test_one_run_prints_the_result_object_last():
    finished = _run("--workload", "catalog-10k", "--quick", "--seed", "3",
                    "--trace", "0")
    assert finished.returncode == 0, finished.stdout + finished.stderr
    line = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(BENCHMARK_FILE, tmp_path / BENCHMARK_FILE.name)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "profile",
                    ignore=shutil.ignore_patterns("__pycache__"))
    finished = _run("--workload", "catalog-10k", "--seed", "1",
                    "--seconds", "1", "--trace", "0", root=tmp_path)
    assert finished.returncode != 0
    assert '"correct"' not in finished.stdout
