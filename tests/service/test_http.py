"""The stdlib HTTP shell: routes, status codes, headers, CLI entry.

Servers bind an ephemeral port (``port=0``) and are driven with
``urllib`` — no third-party client.  The transport must faithfully
relay the core's semantics: 200 full/partial answers, 400 on
malformed bodies, 404 on unknown routes, 429 + ``Retry-After`` on
shed, and JSON everywhere.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceConfig, serve

from tests.service.conftest import build_annoda, wait_for_health


@pytest.fixture
def server(gate):
    """An HTTP server over a small gated federation (the gate starts
    open; tests close it to park requests in their seats)."""
    gate.set()
    http_server = serve(
        build_annoda(gate=gate),
        port=0,
        config=ServiceConfig(queue_capacity=2, workers=1),
    )
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    yield http_server
    gate.set()
    http_server.close(drain=True)
    thread.join(timeout=30)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    try:
        with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _post(server, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        _url(server, "/query"),
        data=data,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestRoutes:
    def test_query_answers_a_catalog_question(self, server):
        status, _headers, body = _post(server, {"question": "figure5b"})
        assert status == 200
        assert body["outcome"] == "ok"
        assert body["result"]["gene_count"] > 0
        assert body["result"]["gene_ids"] == sorted(
            body["result"]["gene_ids"]
        )

    def test_query_answers_free_text(self, server):
        status, _headers, body = _post(
            server,
            {"text": "Find genes associated with some OMIM disease"},
        )
        assert status == 200
        assert body["kind"] == "text"
        assert body["result"]["gene_count"] > 0

    def test_query_with_params(self, server):
        status, _headers, body = _post(
            server,
            {
                "question": "genes_by_annotation_keyword",
                "params": {"keyword": "binding"},
            },
        )
        assert status == 200
        assert body["outcome"] == "ok"

    def test_malformed_json_is_400(self, server):
        status, _headers, body = _post(server, None, raw=b"{nope")
        assert status == 400
        assert "not JSON" in body["error"]

    def test_unknown_question_is_400(self, server):
        status, _headers, body = _post(server, {"question": "nope"})
        assert status == 400
        assert "unknown catalog question" in body["error"]

    def test_missing_question_is_400(self, server):
        status, _headers, body = _post(server, {})
        assert status == 400
        assert "exactly one" in body["error"]

    def test_unknown_endpoint_is_404(self, server):
        status, _headers, body = _get(server, "/nope")
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_questions_lists_the_catalog(self, server):
        status, _headers, body = _get(server, "/questions")
        assert status == 200
        names = [entry["name"] for entry in body["questions"]]
        assert "figure5b" in names
        assert "genes_under_term" in names
        by_name = {entry["name"]: entry["params"] for entry in body["questions"]}
        assert by_name["genes_by_annotation_keyword"] == [
            "keyword", "aspect",
        ]

    def test_healthz_reports_capacity(self, server):
        status, _headers, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_capacity"] == 2
        assert body["workers"] == 1

    def test_metrics_snapshot_counts_requests(self, server):
        _post(server, {"question": "figure5b"})
        status, _headers, body = _get(server, "/metrics")
        assert status == 200
        assert body["service"]["requests_received"] >= 1
        assert body["pipeline"]["rows"] >= 1

    def test_requests_returns_log_shapes(self, server):
        _post(server, {"question": "disease_genes"})
        status, _headers, body = _get(server, "/requests")
        assert status == 200
        assert body["requests"], "request log is empty"
        record = body["requests"][-1]
        assert record["question"] == "disease_genes"
        assert record["http_status"] == 200
        # Volatile fields are normalized out of the shape.
        assert "elapsed" not in record
        assert "request_id" not in record


class TestSheddingOverHTTP:
    def test_queue_full_is_429_with_retry_after(self, server, gate):
        gate.clear()  # park the seated request on its next fetch
        background = []
        # Saturate the single seat plus the two-place wait line with
        # background clients (they park behind the gate), then make
        # one more request — it must shed immediately.
        clients = [
            threading.Thread(
                target=lambda: background.append(_post(
                    server,
                    {"question": "figure5b", "use_cache": False},
                )),
                daemon=True,
            )
            for _ in range(3)
        ]
        try:
            for thread in clients:
                thread.start()
            # Generous deadline: under the racecheck plugin every lock
            # acquisition is instrumented and the three background
            # clients can take well over the uninstrumented time to
            # reach their seats.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _status, _headers, health = _get(server, "/healthz")
                if (
                    health["queue_depth"] >= 2
                    and health["inflight"] >= 1
                ):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("queue never filled")
            status, headers, body = _post(
                server, {"question": "figure5b", "use_cache": False}
            )
            assert status == 429
            assert body["outcome"] == "shed"
            assert "Retry-After" in headers
            assert float(headers["Retry-After"]) > 0
        finally:
            gate.set()
            for thread in clients:
                thread.join(timeout=60)
        assert sorted(s for s, _h, _b in background) == [200, 200, 200]


class TestFastClose:
    def test_fast_close_cancels_the_request_in_flight(self):
        """``close(drain=False)`` cancels the query a handler thread is
        running: its client gets a degraded 200 whose budget was
        cancelled, not the answer run to its end."""
        annoda = build_annoda(flaky={
            name: {"latency": 0.3} for name in ("LocusLink", "GO", "OMIM")
        })
        http_server = serve(
            annoda,
            port=0,
            config=ServiceConfig(queue_capacity=2, workers=1),
        )
        loop = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        loop.start()
        replies = []
        client = threading.Thread(
            target=lambda: replies.append(_post(
                http_server, {"question": "figure5b", "use_cache": False}
            )),
            daemon=True,
        )
        client.start()
        wait_for_health(http_server.service, inflight=1)
        http_server.close(drain=False)
        loop.join(timeout=30)
        client.join(timeout=60)
        assert not client.is_alive()
        [(status, _headers, body)] = replies
        assert status == 200
        assert body["outcome"] == "degraded"
        assert body["result"]["degraded_sources"]
        # No deadline was set, so only a cancel expires the budget.
        assert body["deadline"] is None
        assert body["deadline_expired"] is True


class TestCliServe:
    def test_serve_command_binds_answers_and_stops(self):
        from repro.cli import main

        out = io.StringIO()
        exit_codes = []
        runner = threading.Thread(
            target=lambda: exit_codes.append(main(
                [
                    "--loci", "60", "--go-terms", "40",
                    "--omim-entries", "25",
                    "serve", "--port", "0", "--max-requests", "1",
                    "--service-workers", "1",
                ],
                out=out,
            )),
            daemon=True,
        )
        runner.start()
        url = None
        for _ in range(300):
            text = out.getvalue()
            if "listening on" in text:
                url = text.split("listening on ", 1)[1].split()[0]
                break
            time.sleep(0.01)
        assert url is not None, "serve never reported its address"
        request = urllib.request.Request(
            f"{url}/query",
            data=json.dumps({"question": "figure5b"}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            body = json.loads(resp.read())
        assert body["outcome"] == "ok"
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert exit_codes == [0]
        assert "annoda service stopped" in out.getvalue()
