"""Property tests of the query service.

Concurrency never changes a service answer: Hypothesis draws small
mixed workloads of catalog requests; each workload runs twice against
equivalent federations — once serially through a single seat, once
sent all at once, one client thread per request, to a service with
four seats.  For every request the serialized ``result`` payload (gene
count, the sorted gene ids, degraded sources) must be byte-identical
between the two runs: thread scheduling, seating order and
shared-federation locking are invisible in the answers.

Request bodies are untrusted: any decoded JSON value makes
``ServiceRequest.from_dict`` return a request or raise
:class:`~repro.service.types.BadRequest`, and any ``POST /query`` body
gets a reply — an answer or a 400 — never a 500 or a dropped
connection.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import ServiceConfig, AnnodaService, ServiceRequest, serve
from repro.service.types import BadRequest, CATALOG_PARAMS

from tests.service.conftest import build_annoda, send

#: Seconds one body may take to be answered.
TIME_BOUND = 30.0

REQUEST_POOL = [
    ServiceRequest(question="figure5b"),
    ServiceRequest(question="disease_genes"),
    ServiceRequest(question="unannotated_genes"),
    ServiceRequest(
        question="genes_by_annotation_keyword",
        params={"keyword": "binding"},
    ),
    ServiceRequest(question="genes_under_term", params={"go_id": "GO:0000002"}),
]

workloads = st.lists(
    st.sampled_from(range(len(REQUEST_POOL))), min_size=1, max_size=6
)


def run_workload(workload, workers):
    """Answer the workload on a fresh federation; returns the list of
    serialized ``result`` payloads in submission order."""
    service = AnnodaService(
        build_annoda(),
        ServiceConfig(queue_capacity=len(workload), workers=workers),
    )
    try:
        if workers == 1:
            # Serial reference: one at a time, in order.
            responses = [
                service.ask(REQUEST_POOL[index]) for index in workload
            ]
        else:
            # Concurrent run: one client thread per request, then
            # collect.
            clients = [
                send(service, REQUEST_POOL[index]) for index in workload
            ]
            responses = [client.result(timeout=60) for client in clients]
    finally:
        service.shutdown(drain=True, timeout=60)
    for response in responses:
        assert response.status == 200, response.body
    return [
        json.dumps(response.body["result"], sort_keys=True)
        for response in responses
    ]


@given(workload=workloads)
@settings(max_examples=8, deadline=None)
def test_concurrent_answers_are_byte_identical_to_serial(workload):
    serial = run_workload(workload, workers=1)
    concurrent = run_workload(workload, workers=4)
    assert serial == concurrent


# -- untrusted request bodies ----------------------------------------------------

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)
QUESTIONS = sorted(set(CATALOG_PARAMS) | {"figure5b", "no_such_question"})
PARAM_NAMES = sorted({name for names in CATALOG_PARAMS.values()
                      for name in names})


@st.composite
def request_payloads(draw):
    """A dict over the request fields, each value either well-formed or
    any JSON value; sometimes the payload is any JSON value at all."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(json_values)
    payload = {}
    if draw(st.booleans()):
        payload["question"] = draw(
            st.one_of(st.sampled_from(QUESTIONS), json_values)
        )
    if draw(st.booleans()):
        payload["text"] = draw(st.one_of(
            st.just("human genes annotated with some GO function"),
            json_values,
        ))
    if draw(st.booleans()):
        payload["params"] = draw(st.one_of(
            st.dictionaries(
                st.sampled_from(PARAM_NAMES),
                st.one_of(st.sampled_from(["GO:0000002", "binding",
                                           "not-a-go-id", ""]),
                          json_values),
                max_size=2,
            ),
            json_values,
        ))
    if draw(st.booleans()):
        payload["deadline"] = draw(st.one_of(
            st.floats(min_value=0, max_value=60),
            st.sampled_from([10**400, -(10**400), 2**1024, 1e308]),
            json_values,
        ))
    for flag in ("enrich_links", "use_cache", "trace", "unknown"):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            payload[flag] = draw(st.one_of(st.booleans(), json_values))
    return payload


@given(request_payloads())
@settings(max_examples=200, deadline=None)
def test_from_dict_accepts_or_raises_bad_request(payload):
    try:
        request = ServiceRequest.from_dict(payload)
    except BadRequest:
        return
    assert isinstance(request, ServiceRequest)


@given(st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([10**400, -(10**400), 2**1024]),
))
@settings(max_examples=100, deadline=None)
def test_any_numeric_deadline_is_a_request_or_bad_request(deadline):
    try:
        request = ServiceRequest.from_dict(
            {"question": "figure5b", "deadline": deadline}
        )
    except BadRequest:
        return
    assert request.deadline >= 0


@pytest.fixture(scope="module")
def server():
    http_server = serve(
        build_annoda(),
        port=0,
        config=ServiceConfig(queue_capacity=4, workers=1),
    )
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    yield http_server
    http_server.close(drain=True)
    thread.join(timeout=30)


def post_body(server, body):
    """``(status, decoded reply)`` of one raw ``POST /query``."""
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/query", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=TIME_BOUND) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@st.composite
def nested_bodies(draw):
    """JSON nested far past the decoder's recursion limit (and not)."""
    depth = draw(st.one_of(
        st.sampled_from([10, 1000, 50_000, 100_000]),
        st.integers(min_value=1, max_value=120_000),
    ))
    opener, closer = draw(st.sampled_from(
        [(b"[", b"]"), (b'{"a":', b"}")]
    ))
    inner = b"1" if opener != b"[" else b""
    return opener * depth + inner + closer * depth


bodies = st.one_of(
    request_payloads().map(lambda payload: json.dumps(payload).encode()),
    nested_bodies(),
    st.binary(max_size=64),
)


@given(bodies)
@settings(max_examples=60, deadline=None)
def test_every_body_gets_an_answer_or_a_400(server, body):
    started = time.perf_counter()
    status, reply = post_body(server, body)
    assert time.perf_counter() - started < TIME_BOUND
    assert status in (200, 400), reply
    if status == 400:
        assert reply["error"]
