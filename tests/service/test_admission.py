"""Bounded admission and load-shedding under burst load.

The contract: a request either gets a seat or a place in the wait
line (and is definitely answered) or is rejected *immediately* with
429 + ``Retry-After`` — the wait line never exceeds capacity, waiters
take free seats first come, first served, nothing deadlocks, and
every client gets a response.
"""

import sys
import threading

import pytest

from repro.service import AnnodaService, ServiceConfig, ServiceRequest

from tests.service.conftest import (
    build_annoda,
    make_service,
    send,
    wait_for_health,
)


class TestAdmissionQueue:
    def test_fifo_within_capacity(self, gate):
        """Waiters take the free seat in arrival order."""
        service = make_service(gate=gate, queue_capacity=3, workers=1)
        waiters = [
            ServiceRequest(question="disease_genes"),
            ServiceRequest(question="unannotated_genes"),
            ServiceRequest(
                question="genes_by_annotation_keyword",
                params={"keyword": "binding"},
            ),
        ]
        try:
            clients = [send(service, ServiceRequest(question="figure5b"))]
            wait_for_health(service, inflight=1)
            for depth, request in enumerate(waiters, start=1):
                clients.append(send(service, request))
                wait_for_health(service, queue_depth=depth)
            gate.set()
            for client in clients:
                assert client.result(timeout=30).status == 200
        finally:
            gate.set()
            service.shutdown(drain=True, timeout=30)
        logged = [
            record["question"] for record in service.request_log.records()
        ]
        assert logged == ["figure5b"] + [
            request.describe() for request in waiters
        ]

    def test_capacity_must_be_positive(self):
        annoda = build_annoda()
        for config in (
            ServiceConfig(queue_capacity=0),
            ServiceConfig(workers=0),
        ):
            with pytest.raises(ValueError):
                AnnodaService(annoda, config)


class TestBurstShedding:
    def test_burst_beyond_capacity_sheds_with_429(self, gate):
        """workers + capacity requests answer; the rest shed instantly."""
        capacity, workers = 2, 1
        service = make_service(
            gate=gate, queue_capacity=capacity, workers=workers
        )
        try:
            # Park the seated request on the gate, then fill the wait
            # line.
            parked = [send(service, ServiceRequest(question="figure5b"))]
            wait_for_health(service, inflight=workers)
            for depth in range(1, capacity + 1):
                parked.append(
                    send(service, ServiceRequest(question="figure5b"))
                )
                wait_for_health(service, queue_depth=depth)
            assert not any(client.done() for client in parked)

            # One more is over capacity — it must shed immediately, on
            # the thread that asked.
            response = service.ask(ServiceRequest(question="figure5b"))
            assert response.status == 429
            assert response.retry_after is not None
            assert response.retry_after > 0
            assert response.body["outcome"] == "shed"
            assert "queue full" in response.body["error"]
            assert service.health()["queue_depth"] == capacity
        finally:
            gate.set()
            service.shutdown(drain=True, timeout=30)
        # Every admitted request was answered in full.
        for client in parked:
            answered = client.result(timeout=30)
            assert answered.status == 200
            assert answered.body["result"]["gene_count"] > 0

    def test_shed_responses_resolve_without_waiting(self, gate):
        service = make_service(gate=gate, queue_capacity=1, workers=1)
        try:
            clients = [
                send(service, ServiceRequest(question="figure5b"))
                for _ in range(10)
            ]
            # At most one request runs and one waits while the gate is
            # closed; every other client is answered at once.
            pause = threading.Event()
            for _ in range(3000):
                if sum(client.done() for client in clients) >= 8:
                    break
                pause.wait(0.01)
            answered = [
                client.result(timeout=0) for client in clients
                if client.done()
            ]
            assert len(answered) >= 8
            assert all(response.status == 429 for response in answered)
            assert service.metrics.value("requests_shed") >= 8
            assert service.metrics.value("requests_received") == 10
        finally:
            gate.set()
            service.shutdown(drain=True, timeout=30)
        statuses = [client.result(timeout=30).status for client in clients]
        assert statuses.count(200) == 10 - statuses.count(429)

    def test_shedding_is_recoverable(self, gate):
        """Once the burst drains, new requests are admitted again."""
        service = make_service(gate=gate, queue_capacity=1, workers=1)
        try:
            burst = [
                send(service, ServiceRequest(question="figure5b"))
                for _ in range(5)
            ]
            pause = threading.Event()
            for _ in range(3000):
                if service.metrics.value("requests_shed") >= 1:
                    break
                pause.wait(0.01)
            assert service.metrics.value("requests_shed") >= 1
            gate.set()
            # The backlog drains asynchronously; retry (as a real
            # client honouring Retry-After would) until admitted.
            for _ in range(500):
                late = service.ask(ServiceRequest(question="disease_genes"))
                if late.status != 429:
                    break
                pause.wait(late.retry_after or 0.01)
            assert late.status == 200
            assert late.body["outcome"] == "ok"
        finally:
            gate.set()
            service.shutdown(drain=True, timeout=30)
        for client in burst:
            assert client.result(timeout=30).status in (200, 429)

    def test_queue_high_watermark_is_bounded_by_capacity(self, gate):
        capacity = 3
        service = make_service(
            gate=gate, queue_capacity=capacity, workers=1
        )
        try:
            clients = [
                send(service, ServiceRequest(question="figure5b"))
                for _ in range(12)
            ]
            # Wait until every client is seated, waiting or answered.
            pause = threading.Event()
            for _ in range(3000):
                health = service.health()
                settled = sum(client.done() for client in clients) + (
                    health["inflight"] + health["queue_depth"]
                )
                if health["inflight"] == 1 and settled == len(clients):
                    break
                pause.wait(0.01)
            watermark = service.metrics.value("queue_high_watermark")
            assert 1 <= watermark <= capacity
        finally:
            gate.set()
            service.shutdown(drain=True, timeout=30)
        for client in clients:
            assert client.result(timeout=30).status in (200, 429)


class TestGateUnderContention:
    def test_seats_bound_the_questions_running_at_once(self):
        """Many more clients than cores, switching threads as often as
        the interpreter allows: at most ``workers`` questions run at
        once, every client is answered or shed, and the gate ends
        empty.  A lost update to the gate's bookkeeping breaks one of
        these."""
        workers, clients_count = 2, 24
        annoda = build_annoda()
        state = {"running": 0, "peak": 0}
        state_lock = threading.Lock()
        ask = annoda.ask

        def counting_ask(question, **kwargs):
            with state_lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
            try:
                return ask(question, **kwargs)
            finally:
                with state_lock:
                    state["running"] -= 1

        annoda.ask = counting_ask
        service = make_service(
            annoda=annoda, queue_capacity=3, workers=workers
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [
                send(service, ServiceRequest(question="figure5b"))
                for _ in range(clients_count)
            ]
            statuses = [
                client.result(timeout=60).status for client in clients
            ]
        finally:
            sys.setswitchinterval(interval)
            service.shutdown(drain=True, timeout=60)
        assert set(statuses) <= {200, 429}
        assert 200 in statuses
        assert 1 <= state["peak"] <= workers
        counts = service.metrics.snapshot()["service"]
        assert counts["requests_received"] == clients_count
        assert counts["requests_completed"] == clients_count
        assert (
            counts["requests_admitted"] + counts["requests_shed"]
            == clients_count
        )
        assert counts["requests_shed"] == statuses.count(429)
        health = service.health()
        assert health["inflight"] == 0
        assert health["queue_depth"] == 0
