"""Client mistakes in ``POST /query`` bodies answer 400, never 500.

One test per input.  Shape errors (a body nested too deeply to
decode, a list-valued catalog param, a non-finite, overflowing or
boolean deadline) are rejected while the body is validated; question
text that does not parse, and a question naming a GO term the
ontology does not hold, are rejected by the worker, as a
``bad-request`` outcome counted in ``requests_rejected``.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceConfig, ServiceRequest, serve
from repro.service.types import BadRequest

from tests.service.conftest import build_annoda, make_service


@pytest.fixture
def server():
    http_server = serve(
        build_annoda(),
        port=0,
        config=ServiceConfig(queue_capacity=2, workers=1),
    )
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    yield http_server
    http_server.close(drain=True)
    thread.join(timeout=30)


def _post(server, payload):
    """POST ``payload`` (``json.dumps`` writes NaN as the bare ``NaN``
    token, which the server's decoder accepts)."""
    return _post_raw(server, json.dumps(payload).encode())


def _post_raw(server, body):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=body,
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestBodyValidation:
    def test_list_valued_param_is_400(self, server):
        status, body = _post(server, {
            "question": "genes_by_annotation_keyword",
            "params": {"keyword": ["x"]},
        })
        assert status == 400
        assert "keyword" in body["error"]

    def test_nan_deadline_is_400(self, server):
        status, body = _post(
            server, {"question": "figure5b", "deadline": float("nan")}
        )
        assert status == 400
        assert "deadline" in body["error"]

    def test_infinite_deadline_is_400(self, server):
        status, _body = _post(
            server, {"question": "figure5b", "deadline": float("inf")}
        )
        assert status == 400

    def test_boolean_deadline_is_400(self, server):
        status, body = _post(
            server, {"question": "figure5b", "deadline": True}
        )
        assert status == 400
        assert "deadline" in body["error"]

    def test_deeply_nested_arrays_are_400(self, server):
        depth = 100_000
        status, body = _post_raw(server, b"[" * depth + b"]" * depth)
        assert status == 400
        assert "nests too deeply" in body["error"]

    def test_deeply_nested_objects_are_400(self, server):
        depth = 50_000
        status, body = _post_raw(
            server, b'{"a":' * depth + b"1" + b"}" * depth
        )
        assert status == 400
        assert "nests too deeply" in body["error"]

    def test_overflowing_deadline_is_400(self, server):
        status, body = _post_raw(
            server,
            b'{"question": "figure5b", "deadline": ' + b"9" * 400 + b"}",
        )
        assert status == 400
        assert "deadline" in body["error"]

    def test_nan_deadline_rejected_when_constructed_directly(self):
        with pytest.raises(BadRequest):
            ServiceRequest(question="figure5b", deadline=float("nan"))


class TestUnparseableText:
    def test_empty_text_is_400(self, server):
        status, body = _post(server, {"text": ""})
        assert status == 400
        assert body["outcome"] == "bad-request"
        assert "empty question" in body["error"]

    def test_unparseable_text_is_400(self, server):
        status, body = _post(server, {"text": "what is the weather"})
        assert status == 400
        assert body["outcome"] == "bad-request"

    def test_unparseable_text_counts_as_rejected(self):
        service = make_service(workers=1)
        try:
            response = service.ask(
                ServiceRequest(text="genes with no known phrase at all"),
                timeout=30,
            )
            assert response.status == 400
            assert service.metrics.value("requests_rejected") == 1
            assert service.metrics.value("requests_failed") == 0
        finally:
            service.shutdown(drain=True, timeout=30)


class TestUnknownTerm:
    """A catalog question naming a GO term the ontology does not hold
    cannot be evaluated: a ``bad-request`` naming the accession."""

    @pytest.mark.parametrize("go_id", ["not-a-go-id", ""])
    def test_unknown_go_id_is_400(self, server, go_id):
        status, body = _post(server, {
            "question": "genes_under_term", "params": {"go_id": go_id},
        })
        assert status == 400
        assert body["outcome"] == "bad-request"
        assert repr(go_id) in body["error"]

    def test_unknown_go_id_counts_as_rejected(self):
        service = make_service(workers=1)
        try:
            response = service.ask(
                ServiceRequest(
                    question="genes_under_term",
                    params={"go_id": "not-a-go-id"},
                ),
                timeout=30,
            )
            assert response.status == 400
            assert service.metrics.value("requests_rejected") == 1
            assert service.metrics.value("requests_failed") == 0
        finally:
            service.shutdown(drain=True, timeout=30)
