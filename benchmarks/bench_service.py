"""Service benchmark: the admission-controlled query server under load.

Hundreds of in-process clients hammer one :class:`AnnodaService`
(threaded clients calling the blocking ``ask`` API — the same path the
HTTP shell uses, minus socket overhead) across four scenarios:

1. **cold** — every client bypasses the result cache, so each request
   runs the full mediator pipeline; p50/p99 latency and throughput.
2. **warm** — the same repeated-question workload after a cache warmup
   pass (answers from the mediator's cache); the acceptance bar is
   warm throughput >= ``min_warm_speedup`` x cold.
3. **shedding** — a burst far beyond a small queue's capacity: some
   requests must shed with 429, every ticket must resolve (no
   deadlock), the backlog never exceeds capacity.
4. **deadline** — slow sources plus a short per-request deadline:
   every answer comes back degraded within deadline + source latency
   + one scheduling quantum.

Writes ``benchmarks/results/service.txt`` and the machine-readable
``BENCH_service.json`` at the repo root.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke
"""

import argparse
import json
import pathlib
import threading

from repro.core.annoda import Annoda, AnnodaConfig
from repro.mediator.fetch import FederationPolicy, FlakyWrapper
from repro.service import AnnodaService, ServiceConfig, ServiceRequest
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.util.text import table
from repro.util.timer import Timer
from repro.wrappers import default_wrappers

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL = {
    "clients": 240,
    "workers": 8,
    "shed_clients": 240,
    "shed_capacity": 16,
    "shed_workers": 4,
    "deadline_clients": 24,
    "deadline": 0.05,
    "source_latency": 0.2,
    "min_warm_speedup": 2.0,
}
SMOKE = {
    "clients": 32,
    "workers": 4,
    "shed_clients": 48,
    "shed_capacity": 4,
    "shed_workers": 2,
    "deadline_clients": 8,
    "deadline": 0.05,
    "source_latency": 0.1,
    "min_warm_speedup": 1.2,
}

#: Tolerated scheduling slack on top of deadline + one source latency.
QUANTUM = 1.0

SEED = 17
PARAMETERS = dict(loci=80, go_terms=40, omim_entries=25)

#: The repeated-question workload, round-robined across clients.
QUESTIONS = (
    ("figure5b", {}),
    ("disease_genes", {}),
    ("unannotated_genes", {}),
    ("genes_by_annotation_keyword", {"keyword": "binding"}),
)


def _build_annoda(policy=None, latency=0.0):
    corpus = AnnotationCorpus.generate(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS)
    )
    annoda = Annoda(config=AnnodaConfig(
        federation=policy or FederationPolicy(on_failure="degrade"),
    ))
    annoda.corpus = corpus
    for wrapper in default_wrappers(corpus):
        if latency:
            wrapper = FlakyWrapper(wrapper, latency=latency)
        annoda.add_source(wrapper)
    return annoda


def _request(index, use_cache):
    name, params = QUESTIONS[index % len(QUESTIONS)]
    return ServiceRequest(question=name, params=params,
                          use_cache=use_cache)


def _fire(service, requests, timeout=300):
    """All requests at once, one client thread each; returns the list
    of (status, seconds, outcome) and the burst's wall-clock."""
    outcomes = [None] * len(requests)

    def client(slot, request):
        with Timer() as timer:
            response = service.ask(request, timeout=timeout)
        outcomes[slot] = (
            response.status, timer.elapsed,
            response.body.get("outcome"),
        )

    threads = [
        threading.Thread(target=client, args=(slot, request), daemon=True)
        for slot, request in enumerate(requests)
    ]
    with Timer() as wall:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
    assert all(outcome is not None for outcome in outcomes), (
        "a client never got a response (deadlock?)"
    )
    return outcomes, wall.elapsed


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latency_stats(outcomes, wall):
    latencies = [seconds for _status, seconds, _outcome in outcomes]
    return {
        "requests": len(outcomes),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "throughput_rps": len(outcomes) / wall if wall else float("inf"),
        "wall_seconds": wall,
    }


def _load_scenarios(config, log=print):
    """Cold vs warm throughput over the repeated-question workload."""
    annoda = _build_annoda()
    service = AnnodaService(annoda, ServiceConfig(
        queue_capacity=config["clients"], workers=config["workers"],
    )).start()
    try:
        cold_requests = [
            _request(index, use_cache=False)
            for index in range(config["clients"])
        ]
        cold = _latency_stats(*_fire(service, cold_requests))
        log(
            f"  cold: p50={cold['p50_ms']:.1f}ms "
            f"p99={cold['p99_ms']:.1f}ms "
            f"throughput={cold['throughput_rps']:.0f} req/s"
        )

        # Warm every question once, then measure the cached workload.
        for index in range(len(QUESTIONS)):
            response = service.ask(_request(index, use_cache=True),
                                   timeout=300)
            assert response.status == 200, response.body
        warm_requests = [
            _request(index, use_cache=True)
            for index in range(config["clients"])
        ]
        warm = _latency_stats(*_fire(service, warm_requests))
        log(
            f"  warm: p50={warm['p50_ms']:.1f}ms "
            f"p99={warm['p99_ms']:.1f}ms "
            f"throughput={warm['throughput_rps']:.0f} req/s"
        )
        snapshot = service.metrics.snapshot()["service"]
        assert snapshot["requests_failed"] == 0, snapshot
        assert snapshot["requests_shed"] == 0, (
            "load scenario must not shed (queue sized to the fleet)"
        )
    finally:
        service.shutdown(drain=True, timeout=300)
    speedup = warm["throughput_rps"] / cold["throughput_rps"]
    assert speedup >= config["min_warm_speedup"], (
        f"warm throughput only {speedup:.2f}x cold "
        f"(need >= {config['min_warm_speedup']}x)"
    )
    log(f"  warm/cold throughput: {speedup:.2f}x")
    return {"cold": cold, "warm": warm, "warm_speedup": speedup}


def _shedding_scenario(config, log=print):
    """A burst beyond capacity sheds with 429 and never deadlocks.

    The sources answer after ``source_latency``, so the burst outlasts
    the workers: over in-memory sources an uncached answer can finish
    before the next client thread even submits, and the seats would
    never fill."""
    annoda = _build_annoda(latency=config["source_latency"])
    service = AnnodaService(annoda, ServiceConfig(
        queue_capacity=config["shed_capacity"],
        workers=config["shed_workers"],
    )).start()
    try:
        requests = [
            _request(index, use_cache=False)
            for index in range(config["shed_clients"])
        ]
        outcomes, wall = _fire(service, requests)
        statuses = [status for status, _seconds, _outcome in outcomes]
        shed = statuses.count(429)
        answered = statuses.count(200)
        assert shed > 0, (
            f"{config['shed_clients']} clients against "
            f"{config['shed_capacity']} seats never shed"
        )
        assert shed + answered == len(outcomes), statuses
        assert answered >= config["shed_workers"], statuses
        watermark = service.metrics.value("queue_high_watermark")
        assert watermark <= config["shed_capacity"]
        shed_latencies = [
            seconds for status, seconds, _outcome in outcomes
            if status == 429
        ]
        log(
            f"  shed {shed}/{len(outcomes)} "
            f"(answered {answered}) in {wall:.2f}s; "
            f"shed p99={_percentile(shed_latencies, 0.99) * 1e3:.1f}ms"
        )
        return {
            "clients": config["shed_clients"],
            "capacity": config["shed_capacity"],
            "shed": shed,
            "answered": answered,
            "queue_high_watermark": watermark,
            "wall_seconds": wall,
        }
    finally:
        service.shutdown(drain=True, timeout=300)


def _deadline_scenario(config, log=print):
    """Slow sources + short deadlines: degraded answers, bounded."""
    annoda = _build_annoda(latency=config["source_latency"])
    service = AnnodaService(annoda, ServiceConfig(
        queue_capacity=config["deadline_clients"],
        workers=config["shed_workers"],
    )).start()
    try:
        requests = [
            ServiceRequest(
                question="figure5b",
                deadline=config["deadline"],
                use_cache=False,
            )
            for _ in range(config["deadline_clients"])
        ]
        outcomes, wall = _fire(service, requests)
        bound = config["deadline"] + config["source_latency"] + QUANTUM
        worst = max(seconds for _s, seconds, _o in outcomes)
        for status, seconds, outcome in outcomes:
            assert status == 200, (status, outcome)
            assert outcome == "degraded", outcome
            assert seconds <= bound, (
                f"deadline-expired request took {seconds:.2f}s "
                f"(bound {bound:.2f}s)"
            )
        expired = service.metrics.value("deadline_expired")
        assert expired == len(requests), expired
        log(
            f"  {len(outcomes)} deadline-bounded requests degraded in "
            f"{wall:.2f}s (worst {worst * 1e3:.0f}ms, "
            f"bound {bound * 1e3:.0f}ms)"
        )
        return {
            "clients": config["deadline_clients"],
            "deadline": config["deadline"],
            "source_latency": config["source_latency"],
            "bound_seconds": bound,
            "worst_seconds": worst,
            "wall_seconds": wall,
        }
    finally:
        service.shutdown(drain=True, timeout=300)


def _render(load, shedding, deadline):
    rows = [
        [
            name,
            stats["requests"],
            f"{stats['p50_ms']:.1f}",
            f"{stats['p99_ms']:.1f}",
            f"{stats['throughput_rps']:.0f}",
        ]
        for name, stats in (("cold", load["cold"]), ("warm", load["warm"]))
    ]
    rendered = table(
        ["scenario", "requests", "p50 ms", "p99 ms", "req/s"], rows
    )
    return (
        "Annoda service under concurrent load "
        "(in-process clients, shared federation)\n\n"
        + rendered
        + f"\n\nwarm/cold throughput: {load['warm_speedup']:.2f}x\n"
        + (
            f"shedding: {shedding['shed']}/{shedding['clients']} shed "
            f"with 429 against {shedding['capacity']} seats "
            f"(watermark {shedding['queue_high_watermark']})\n"
        )
        + (
            f"deadlines: worst {deadline['worst_seconds'] * 1e3:.0f}ms "
            f"vs bound {deadline['bound_seconds'] * 1e3:.0f}ms "
            f"({deadline['clients']} clients, "
            f"{deadline['deadline'] * 1e3:.0f}ms deadline)\n"
        )
    )


def _write(load, shedding, deadline, results_dir):
    results_dir.mkdir(exist_ok=True)
    artifact = _render(load, shedding, deadline)
    (results_dir / "service.txt").write_text(artifact, encoding="utf-8")
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(
            {
                "benchmark": "service",
                "load": load,
                "shedding": shedding,
                "deadline": deadline,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return artifact


def test_service_load(results_dir):
    quiet = lambda *_: None  # noqa: E731
    load = _load_scenarios(FULL, log=quiet)
    shedding = _shedding_scenario(FULL, log=quiet)
    deadline = _deadline_scenario(FULL, log=quiet)
    _write(load, shedding, deadline, results_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced client fleet for CI",
    )
    arguments = parser.parse_args(argv)
    config = SMOKE if arguments.smoke else FULL
    print(
        f"service bench ({'smoke' if arguments.smoke else 'full'}): "
        f"{config['clients']} clients, {config['workers']} workers"
    )
    load = _load_scenarios(config)
    shedding = _shedding_scenario(config)
    deadline = _deadline_scenario(config)
    artifact = _write(load, shedding, deadline, RESULTS_DIR)
    print()
    print(artifact)


if __name__ == "__main__":
    main()
