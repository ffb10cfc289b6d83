"""The ANNODA profile benchmark: one command, four workloads.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/profile/run.py --workload catalog-10k --seed 7 \\
        --seconds 30 --trace 0

prints each metric with its unit, then, as the last line, the JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Every workload, ten seeds, one result file::

    PYTHONPATH=src python benchmarks/profile/run.py --seed 7 \\
        --out benchmarks/profile/results/seed7-a.json

runs ten untraced runs of each ``BENCHMARK.json`` workload (seeds
``seed`` to ``seed+9``) plus one traced run, then one traced run of
``coldstart-100k``; prints medians and spreads, and writes the result
JSON, which names the dominant stage of every catalog question at each
corpus size.  ``--quick`` makes every corpus 500 loci, windows 3 s and
runs one per workload (the harness self-test).

Each run prepares its inputs and measures in two fresh processes,
under a scratch directory in ``.bench_build/`` that it removes again.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spec import (
    FULL_RUNS,
    HERE,
    PROFILE_ONLY,
    QUICK_SECONDS,
    ROOT,
    SRC,
    WORKLOADS,
    load_benchmark,
    scale_of,
)

WORK_ROOT = ROOT / ".bench_build" / "annoda-profile"

#: Seconds one run may take in all before its processes are killed.
RUN_LIMIT = 170

#: The same for a ``PROFILE_ONLY`` run, whose traced passes at 100k
#: loci take minutes.
PROFILE_LIMIT = 900


def _child_env():
    env = dict(os.environ)
    paths = [str(SRC)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(script, arguments, deadline, limit):
    """Run ``script`` in a fresh interpreter and its own session, so a
    timeout kills it together with any server it started."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / script), *map(str, arguments)],
        stdout=subprocess.PIPE,
        text=True,
        env=_child_env(),
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{script} overran the {limit}s run limit")
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"{script} exited with {process.returncode}")
    return output


def measure(name, seed, seconds, trace, quick=False):
    """One run of workload ``name``: its record as a dict, with the
    run's whole wall time, preparation included, as ``run_s``."""
    limit = PROFILE_LIMIT if name in PROFILE_ONLY else RUN_LIMIT
    started = time.monotonic()
    deadline = started + limit
    scale = scale_of(name, quick)
    work = WORK_ROOT / f"{name}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _child("prepare.py",
               ["--scale", scale, "--seed", seed, "--dir", work],
               deadline, limit)
        output = _child(
            "workloads.py",
            ["--workload", name, "--dir", work, "--seed", seed,
             "--seconds", seconds, "--trace", trace],
            deadline, limit,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = json.loads(output.strip().splitlines()[-1])
    record["run_s"] = time.monotonic() - started
    return record


def contract_line(record, trace):
    """The result object one run prints last: the end-to-end metrics,
    or with ``trace`` the per-layer ones, each with its unit.  A
    per-layer entry may name a run-level metric (one whose spread is too
    wide for a bound, or that is 0 on every correct run)."""
    specs = load_benchmark()["per_layer" if trace else "end_to_end"]
    values = {**record["metrics"], **record["layers"]} if trace else (
        record["metrics"]
    )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]}
            for spec in specs
        },
    }


def _print_stages(stages):
    for question, stage in stages.items():
        print(f"  dominant stage of {question}: cold "
              f"{stage['dominant_cold']}, warm {stage['dominant_warm']}")




def run_one(args):
    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.quick)
    line = contract_line(record, args.trace)
    print(f"{args.workload} seed={args.seed} samples={record['samples']} "
          f"beyond_p90={record['beyond_p90']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {record['metrics']['error_rate']:.6g} ratio")
    if args.trace:
        _print_stages(record["stages"])
    for error in record["errors"]:
        print(f"  wrong answer: {error}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


#: What the result file keeps of an untraced and of a traced run.
RUN_KEYS = ("seed", "metrics", "attempted", "failed", "errors", "samples",
            "beyond_p90", "window_s", "run_s", "setup_samples",
            "first_answer_samples", "pass_samples", "answers")
TRACE_KEYS = ("seed", "metrics", "layers", "stages", "attempted", "failed",
              "errors", "run_s")


def _keep(record, keys):
    return {key: record[key] for key in keys}


def _dominant(traced):
    return {
        question: {"cold": stage["dominant_cold"],
                   "warm": stage["dominant_warm"]}
        for question, stage in traced["stages"].items()
    }


def run_all(args):
    benchmark = load_benchmark()
    runs_per_workload = 1 if args.quick else FULL_RUNS
    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "runs_per_workload": runs_per_workload,
        "quick": args.quick,
        "workloads": {},
        "profiles": {},
        "dominant_stage": {},
    }
    records = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs = []
        for offset in range(runs_per_workload):
            record = measure(name, args.seed + offset, args.seconds, 0,
                             args.quick)
            runs.append(record)
            print(f"{name} seed={record['seed']} run_s={record['run_s']:.1f} "
                  + " ".join(f"{key}={value:.4g}" for key, value
                             in record["metrics"].items()), flush=True)
        traced = measure(name, args.seed, args.seconds, 1, args.quick)
        records += runs + [traced]
        entry = {
            "why": workload["why"],
            "runs": [_keep(record, RUN_KEYS) for record in runs],
            "median": {}, "spread": {},
            "trace": _keep(traced, TRACE_KEYS),
        }
        for metric in runs[0]["metrics"]:
            values = [record["metrics"][metric] for record in runs]
            entry["median"][metric] = statistics.median(values)
            entry["spread"][metric] = spread(values)
        results["workloads"][name] = entry
        results["dominant_stage"].setdefault(scale_of(name, args.quick),
                                             _dominant(traced))
    for name in PROFILE_ONLY:
        traced = measure(name, args.seed, args.seconds, 1, args.quick)
        records.append(traced)
        results["profiles"][name] = _keep(traced, RUN_KEYS + TRACE_KEYS)
        results["dominant_stage"].setdefault(scale_of(name, args.quick),
                                             _dominant(traced))
    _print_summary(results, benchmark)
    out = args.out or str(WORK_ROOT / "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0 if all(record["failed"] == 0 for record in records) else 1


def _print_summary(results, benchmark):
    """Each run-level metric's median and spread, with its bound when
    it is end-to-end ("-" when ``BENCHMARK.json`` lists it per layer)."""
    units = {spec["name"]: spec["unit"]
             for spec in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {spec["name"]: f"{spec['bound']:.0%}"
              for spec in benchmark["end_to_end"]}
    print()
    print(f"{'workload':<18} {'metric':<16} {'median':>12} {'unit':<6} "
          f"{'spread':>7} {'bound':>6}")
    for name, entry in results["workloads"].items():
        for metric, median in entry["median"].items():
            print(f"{name:<18} {metric:<16} {median:>12.5g} "
                  f"{units[metric]:<6} {entry['spread'][metric]:>7.1%} "
                  f"{bounds.get(metric, '-'):>6}")
        runs = entry["runs"]
        failed = sum(run["failed"] for run in runs) + entry["trace"]["failed"]
        attempted = sum(run["attempted"] for run in runs)
        attempted += entry["trace"]["attempted"]
        print(f"{name:<18} {failed} of {attempted} answers wrong or failed; "
              f"samples per window {min(r['samples'] for r in runs)} to "
              f"{max(r['samples'] for r in runs)}, beyond p90 "
              f"{min(r['beyond_p90'] for r in runs)} to "
              f"{max(r['beyond_p90'] for r in runs)}")
    for name, profile in results["profiles"].items():
        print(f"{name} (one traced run): " + ", ".join(
            f"{key}={value:.5g}" for key, value in profile["metrics"].items()
        ))
    for scale, questions in results["dominant_stage"].items():
        for question, stages in questions.items():
            print(f"{scale:<8} dominant stage of {question}: "
                  f"cold {stages['cold']}, warm {stages['warm']}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one run of this workload (else: every workload)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="500-loci corpora, 3 s windows, one run each")
    parser.add_argument("--out", help="result file (all-workload mode)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no ANNODA sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = (QUICK_SECONDS if args.quick
                        else load_benchmark()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
