"""Compare two profile-benchmark result files, metric by metric.

    python benchmarks/profile/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate; both come from
``run.py`` in all-workload mode.  For every (workload, end-to-end
metric) pair the metric's bound from ``BENCHMARK.json`` decides:

- ``unresolved`` - either side's run-to-run spread (interquartile
  distance over median) is wider than the bound, and not every run of
  B is better than every run of A;
- ``regressed`` / ``improved`` - B's median is worse / better than A's
  by more than the bound (or, under a wide spread, every B run beats
  every A run);
- ``unchanged`` - otherwise.

Stage shares of the traced runs (each stage's share of the ``query``
span, warm pass) are printed as information only.  Exits 1 when any
metric regressed, so it can gate a change, and 2 without comparing
when the files cannot be compared: different workloads, window
length, ``--quick`` or runs per workload, or any wrong or failed
answer on either side.
"""

import argparse
import json
import sys
from statistics import median

from run import spread
from spec import load_benchmark


def verdict(baseline, candidate, better, bound):
    """One metric's classification from both sides' per-run values."""
    base = median(baseline)
    worse_by = (median(candidate) - base) / base
    all_better = max(candidate) < min(baseline)
    if better == "higher":
        worse_by = -worse_by
        all_better = min(candidate) > max(baseline)
    if max(spread(baseline), spread(candidate)) > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def _values(entry, name):
    return [run["metrics"][name] for run in entry["runs"]]


def _records(result):
    """``(label, record)`` for every run a result file holds."""
    for name, entry in result["workloads"].items():
        for run in entry["runs"]:
            yield f"{name} seed {run['seed']}", run
        yield f"{name} traced", entry["trace"]
    for name, profile in result["profiles"].items():
        yield f"{name} traced", profile


def incompatibilities(baseline, candidate):
    """Why the two result files cannot be compared; empty if they can."""
    problems = [
        f"{key} differs: {baseline.get(key)!r} vs {candidate.get(key)!r}"
        for key in ("seconds", "quick", "runs_per_workload")
        if baseline.get(key) != candidate.get(key)
    ]
    if set(baseline["workloads"]) != set(candidate["workloads"]):
        problems.append(
            f"workloads differ: {sorted(baseline['workloads'])} vs "
            f"{sorted(candidate['workloads'])}"
        )
    for side, result in (("A", baseline), ("B", candidate)):
        for label, record in _records(result):
            if record["failed"]:
                problems.append(f"{side} {label}: {record['failed']} wrong "
                                f"or failed answers")
    return problems


def compare(baseline, candidate, metrics):
    """Rows of ``(workload, metric, A, B, change, verdict)``; the files
    must be compatible (see :func:`incompatibilities`)."""
    rows = []
    for workload, entry in baseline["workloads"].items():
        other = candidate["workloads"][workload]
        for spec in metrics:
            name = spec["name"]
            a, b = _values(entry, name), _values(other, name)
            rows.append((
                workload, name, median(a), median(b),
                (median(b) - median(a)) / median(a),
                verdict(a, b, spec["better"], spec["bound"]),
            ))
    return rows


def _traces(result):
    """Workload name -> its traced run (the profiled ones included)."""
    traces = {name: entry["trace"]
              for name, entry in result["workloads"].items()}
    traces.update(result["profiles"])
    return traces


def stage_share_deltas(baseline, candidate):
    """``(workload, question, stage, share A, share B)`` for every stage
    either side's warm traced pass recorded."""
    rows = []
    other_traces = _traces(candidate)
    for workload, trace in _traces(baseline).items():
        other = other_traces.get(workload)
        if other is None:
            continue
        for question, stages in trace["stages"].items():
            a = stages["warm"]["share"]
            b = other["stages"].get(question, {}).get(
                "warm", {}).get("share", {})
            for stage in sorted(set(a) | set(b)):
                rows.append((workload, question, stage,
                             a.get(stage, 0.0), b.get(stage, 0.0)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.candidate, encoding="utf-8") as handle:
        candidate = json.load(handle)
    problems = incompatibilities(baseline, candidate)
    if problems:
        for problem in problems:
            print(f"cannot compare: {problem}", file=sys.stderr)
        return 2
    metrics = load_benchmark()["end_to_end"]
    rows = compare(baseline, candidate, metrics)
    print(f"{'workload':<18} {'metric':<16} {'A':>11} {'B':>11} "
          f"{'change':>8}  verdict")
    for workload, name, a, b, change, outcome in rows:
        print(f"{workload:<18} {name:<16} {a:>11.5g} {b:>11.5g} "
              f"{change:>+8.1%}  {outcome}")
    print()
    print("stage shares of the query span, warm traced pass "
          "(information only)")
    for workload, question, stage, a, b in stage_share_deltas(
            baseline, candidate):
        print(f"{workload:<18} {question:<48} {stage:<16} "
              f"{a:>6.1%} -> {b:>6.1%} ({(b - a) * 100:+.1f} pt)")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
