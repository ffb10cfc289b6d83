"""The measuring process of one profile-benchmark run.

Runs one workload against the snapshot ``prepare.py`` wrote, checks
every answer, and prints the run record as one JSON line::

    python benchmarks/profile/workloads.py --workload catalog-10k \\
        --dir DIR --seed 7 --seconds 30 --trace 0

End-to-end numbers come from an untraced window.  With ``--trace 1``
:func:`layers.layer_probe` first takes the per-layer numbers from
traced asks on a fresh federation, and the window gets what is left of
``--seconds`` (at least one pass), so a traced run lasts about as long
as an untraced one.
"""

import argparse
import gc
import http.client
import json
import pathlib
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading

from layers import catalog_questions, layer_probe, timed_ask
from spec import (
    CATALOG,
    UPDATE_EVERY,
    answer_digest,
    load_pins,
    request_key,
    zipf_stream,
)

from repro.core.annoda import Annoda
from repro.util.clock import default_clock
from repro.util.rng import DeterministicRng
from repro.util.timer import Timer

#: Set-ups per run of ``catalog-10k``, ``freshness-2k`` and
#: ``service-zipf-10k``; ``setup_s`` is their median.  The first serves
#: the window and answers the first question (``first_answer_s``); the
#: others only load, after the window: loading and dropping federations
#: before it would leave the window's federation in a fragmented heap,
#: about 20% slower.
SETUPS = 3

#: One-client passes over the six questions after the service window;
#: ``pass_s`` is their median.
SERVICE_PASSES = 30

#: Closed-loop HTTP clients (at most ``nproc`` on the target machine).
HTTP_CLIENTS = 2

#: Seconds to wait for a server to print its address or to exit.
SERVER_TIMEOUT = 60


class AnswerCheck:
    """Validates every answer a run receives.

    The first answer to a request is hashed (:func:`spec.answer_digest`)
    and compared with the ground-truth or pinned digest when one
    exists; every later answer must match the first exactly.
    """

    def __init__(self, expected):
        self.expected = dict(expected)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._first = {}
        self._lock = threading.Lock()

    def ids(self, key, gene_ids):
        gene_ids = list(gene_ids)
        fingerprint = (len(gene_ids), hash(tuple(gene_ids)))
        with self._lock:
            self.attempted += 1
            first = self._first.get(key)
            if first is None:
                digest = answer_digest(gene_ids)
                self._first[key] = fingerprint
                self.digests[key] = digest
                wanted = self.expected.get(key)
                if wanted is None or wanted == digest:
                    return True
                reason = f"digest {digest[:12]} != expected {wanted[:12]}"
            elif first == fingerprint:
                return True
            else:
                reason = "differs from its first answer"
            self._record_failure(key, reason)
            return False

    def result(self, key, result):
        """An in-process answer: not degraded, and the right genes."""
        if result.report.degraded:
            self.fail(key, f"degraded: {sorted(result.report.degraded)}")
            return False
        return self.ids(key, result.gene_ids())

    def fail(self, key, reason):
        with self._lock:
            self.attempted += 1
            self._record_failure(key, reason)

    def _record_failure(self, key, reason):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {reason}")


class Window:
    """Answers timed in one measurement window."""

    def __init__(self):
        self.latencies = []
        self.passes = []
        self.cache_hits = 0
        self.server_seconds = []
        self.response_bytes = []
        self.wall = 0.0
        self._lock = threading.Lock()

    def add(self, seconds, cache_hit=False, server_seconds=None,
            response_bytes=None):
        with self._lock:
            self.latencies.append(seconds)
            self.cache_hits += bool(cache_hit)
            if server_seconds is not None:
                self.server_seconds.append(server_seconds)
                self.response_bytes.append(response_bytes)


class Run:
    """One run's inputs, its answer check and its start-up samples."""

    def __init__(self, args):
        directory = pathlib.Path(args.dir)
        self.snapshot = directory / "snapshot"
        self.seed = args.seed
        self.seconds = args.seconds
        prepared = json.loads((directory / "expected.json").read_text())
        expected = {
            name: answer["sha256"]
            for name, answer in prepared["answers"].items()
        }
        expected.update(load_pins(prepared["scale"], self.seed))
        self.check = AnswerCheck(expected)
        self.clock = default_clock()
        self.setups = []
        self.first_answers = []

    def requests(self):
        """The seeded Zipf stream of catalog-question indexes."""
        rng = DeterministicRng(self.seed).substream("profile-requests")
        return zipf_stream(rng, len(CATALOG))

    def window_over(self, start, passes):
        """Whether a window that began at ``start`` ends after the pass
        just finished: at the pass boundary nearest ``seconds``, so
        windows average ``seconds`` while every question in them is
        asked equally often."""
        elapsed = self.clock.now() - start
        return elapsed + statistics.median(passes) / 2 >= self.seconds


def _load(run):
    """A fresh in-process federation from the snapshot, what a restarted
    ``annoda serve --snapshot-dir`` does before its first request; the
    load time is one ``setup_s`` sample."""
    gc.collect()  # the dropped federation's cycles, outside the timing
    with Timer() as timer:
        annoda = Annoda.from_directory(run.snapshot)
    run.setups.append(timer.elapsed)
    return annoda


def _ask_pass(run, annoda, window, use_cache, after_answer=None):
    """The six catalog questions in turn; the sum of their latencies is
    one ``pass_s`` sample.  Returns the first answer's latency."""
    latencies = []
    for key, question in catalog_questions(annoda):
        result, elapsed = timed_ask(annoda, question, use_cache)
        run.check.result(key, result)
        window.add(elapsed, cache_hit=result.from_result_cache)
        latencies.append(elapsed)
        if after_answer is not None:
            after_answer(len(window.latencies))
    window.passes.append(sum(latencies))
    return latencies[0]


def _restart(run):
    """A fresh federation that has answered the first catalog question
    uncached: one ``setup_s`` and one ``first_answer_s`` sample."""
    annoda = _load(run)
    key, question = catalog_questions(annoda)[0]
    result, elapsed = timed_ask(annoda, question)
    run.check.result(key, result)
    run.first_answers.append(run.setups[-1] + elapsed)
    return annoda


def _passes(run, annoda, use_cache, after_answer=None):
    """One closed-loop client asking the six catalog questions in turn
    until :meth:`Run.window_over`."""
    gc.collect()  # the set-ups' dropped federations, outside the window
    window = Window()
    start = run.clock.now()
    while True:
        _ask_pass(run, annoda, window, use_cache, after_answer)
        if run.window_over(start, window.passes):
            window.wall = run.clock.now() - start
            return window


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _summary(run, window, peak_rss_mb):
    latencies = sorted(window.latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return {
        "metrics": {
            "setup_s": statistics.median(run.setups),
            "first_answer_s": statistics.median(run.first_answers),
            "pass_s": statistics.median(window.passes),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "throughput_qps": len(latencies) / window.wall,
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": len(latencies),
        "beyond_p90": sum(1 for value in latencies if value > p90),
        "window_s": window.wall,
        "setup_samples": run.setups,
        "first_answer_samples": run.first_answers,
        "pass_samples": window.passes,
    }


def _in_process_record(run, window, peak_rss_mb):
    """The record of an in-process workload: no service sits between
    client and federation, so the service layer adds nothing."""
    record = _summary(run, window, peak_rss_mb)
    record["layers"] = {
        "mediator.result_cache.hit_ratio": (
            window.cache_hits / len(window.latencies)
        ),
        "service.server_ms_p50": statistics.median(window.latencies) * 1e3,
        "service.overhead_ms_p50": 0.0,
        "service.response_kb_mean": 0.0,
    }
    return record


# -- workloads -----------------------------------------------------------------


def _after_window(run):
    """The peak memory as of the window's end, then the set-ups left."""
    peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    for _ in range(SETUPS - 1):
        _load(run)
    return peak_rss_mb


def catalog(run):
    """The catalog questions in turn with the result cache bypassed."""
    window = _passes(run, _restart(run), use_cache=False)
    return _in_process_record(run, window, _after_window(run))


def freshness(run):
    """The catalog questions in turn with the cache on; a LocusLink
    record is removed and re-added after every ``UPDATE_EVERY`` answers
    (a new source version over identical data), so no answer is ever
    replayed and every update invalidates what the reads built."""
    annoda = _restart(run)
    store = annoda.mediator.wrapper("LocusLink").source
    locus_ids = store.locus_ids()
    rng = DeterministicRng(run.seed).substream("profile-updates")
    updates = []

    def update(answered):
        if answered % UPDATE_EVERY == 0:
            locus_id = rng.choice(locus_ids)
            record = store.get(locus_id)
            store.remove(locus_id)
            store.add(record)
            updates.append(locus_id)

    window = _passes(run, annoda, use_cache=True, after_answer=update)
    annoda = store = None
    record = _in_process_record(run, window, _after_window(run))
    record["updates"] = len(updates)
    return record


def coldstart(run):
    """Restart cycles: load the snapshot (index adoption on), then one
    uncached pass of the six questions, until :meth:`Run.window_over`.
    Throughput is answers per second of restart-plus-answer time (the
    collector run between cycles stands in for a new process)."""
    window = Window()
    start = run.clock.now()
    while True:
        annoda = None  # drop the old federation before loading anew
        annoda = _load(run)
        first = _ask_pass(run, annoda, window, use_cache=False)
        run.first_answers.append(run.setups[-1] + first)
        window.wall += run.setups[-1] + window.passes[-1]
        if run.window_over(start, window.passes):
            return _in_process_record(
                run, window, _peak_rss_mb(resource.RUSAGE_SELF)
            )


class Server:
    """``python -u -m repro --snapshot-dir DIR serve`` in a child
    process; ``setup_seconds`` runs from spawn to the first 200 from
    ``/healthz``."""

    LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

    def __init__(self, run):
        self._clock = run.clock
        self.started = self._clock.now()
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro",
                "--snapshot-dir", str(run.snapshot),
                "serve", "--port", "0",
                "--service-workers", str(HTTP_CLIENTS),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.host, self.port = self._address()
            while self._health() != 200:
                if self._clock.now() - self.started > SERVER_TIMEOUT:
                    raise RuntimeError("server never became healthy")
                self._clock.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = self._clock.now() - self.started

    def _address(self):
        ready, _, _ = select.select(
            [self.process.stdout], [], [], SERVER_TIMEOUT
        )
        line = self.process.stdout.readline() if ready else ""
        match = self.LISTENING.search(line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        return match.group(1), int(match.group(2))

    def _health(self):
        try:
            return self.call("GET", "/healthz")[0]
        except ConnectionError:
            return None

    def call(self, method, path, body=None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=SERVER_TIMEOUT
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def query(self, name, params):
        body = json.dumps({"question": name, "params": params})
        return self.call("POST", "/query", body.encode("utf-8"))

    def metrics(self):
        _status, body = self.call("GET", "/metrics")
        return json.loads(body)["service"]

    def stop(self):
        """SIGINT (the CLI's clean stop), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _check_response(run, key, status, body):
    if status != 200:
        run.check.fail(key, f"HTTP {status}")
        return None
    payload = json.loads(body)
    if payload.get("outcome") != "ok":
        run.check.fail(key, f"outcome {payload.get('outcome')!r}")
        return None
    run.check.ids(key, payload["result"]["gene_ids"])
    return payload


def _ask_http(run, server, name, params):
    """One ``POST /query``, checked; returns its latency and payload."""
    key = request_key(name, params)
    with Timer() as timer:
        status, body = server.query(name, params)
    return timer.elapsed, _check_response(run, key, status, body), body


def _serve(run):
    """A started server: one ``setup_s`` sample."""
    server = Server(run)
    run.setups.append(server.setup_seconds)
    return server


def service(run):
    """``HTTP_CLIENTS`` closed-loop client threads POST Zipf-drawn
    catalog questions (cache on) to the real server, after every
    question has been answered once, so the window serves hits; then
    one client times ``SERVICE_PASSES`` passes of the six questions."""
    server = _serve(run)
    try:
        _ask_http(run, server, *CATALOG[0])
        run.first_answers.append(run.clock.now() - server.started)
        for name, params in CATALOG[1:]:
            _ask_http(run, server, name, params)
        counted = server.metrics()
        window = _http_window(run, server)
        hits = server.metrics()["result_cache_hits"]
        hits -= counted["result_cache_hits"]
        for _ in range(SERVICE_PASSES):
            window.passes.append(sum(
                _ask_http(run, server, name, params)[0]
                for name, params in CATALOG
            ))
    finally:
        server.stop()
    peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    for _ in range(SETUPS - 1):
        _serve(run).stop()
    record = _summary(run, window, peak_rss_mb)
    overheads = [
        client - inside
        for client, inside in zip(window.latencies, window.server_seconds)
    ]
    record["layers"] = {
        "mediator.result_cache.hit_ratio": hits / len(window.latencies),
        "service.server_ms_p50": (
            statistics.median(window.server_seconds) * 1e3
        ),
        "service.overhead_ms_p50": statistics.median(overheads) * 1e3,
        "service.response_kb_mean": (
            statistics.fmean(window.response_bytes) / 1024.0
        ),
    }
    return record


def _http_window(run, server):
    """Every client sends at least one request, then stops at the
    deadline."""
    stream = run.requests()
    stream_lock = threading.Lock()
    window = Window()
    deadline = run.clock.now() + run.seconds

    def client():
        while True:
            with stream_lock:
                name, params = CATALOG[next(stream)]
            try:
                elapsed, payload, body = _ask_http(run, server, name, params)
            except Exception as exc:  # the client loop must keep going
                run.check.fail(request_key(name, params),
                               f"{type(exc).__name__}: {exc}")
            else:
                if payload is not None:
                    window.add(elapsed, server_seconds=payload["elapsed"],
                               response_bytes=len(body))
            if run.clock.now() >= deadline:
                return

    start = run.clock.now()
    threads = [threading.Thread(target=client) for _ in range(HTTP_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=run.seconds + SERVER_TIMEOUT)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("an HTTP client did not finish")
    window.wall = run.clock.now() - start
    return window


RUNNERS = {
    "catalog-10k": catalog,
    "service-zipf-10k": service,
    "freshness-2k": freshness,
    "coldstart-20k": coldstart,
    "coldstart-100k": coldstart,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(RUNNERS),
                        required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(args)
    probe = None
    if args.trace:
        with Timer() as timer:
            probe = layer_probe(run.snapshot, run.seed, run.check.result)
        run.seconds = max(0.0, run.seconds - timer.elapsed)
        gc.collect()  # the probe's federation, before the window's
    record = RUNNERS[args.workload](run)
    if probe is not None:
        per_layer, stages = probe
        record["layers"].update(per_layer)
        record["stages"] = stages
    record["metrics"]["error_rate"] = (
        run.check.failed / max(run.check.attempted, 1)
    )
    record.update(
        workload=args.workload,
        seed=args.seed,
        attempted=run.check.attempted,
        failed=run.check.failed,
        errors=run.check.errors,
        answers=dict(sorted(run.check.digests.items())),
    )
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
