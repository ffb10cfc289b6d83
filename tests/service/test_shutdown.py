"""Shutdown semantics: graceful drain and fast cancellation.

Graceful shutdown answers every waiting and running request before it
returns; fast shutdown refuses the waiting ones as 503 and cancels the
running ones' budgets, so they finish as degraded partial answers.
Either way every client gets a response, and a request refused at
shutdown is logged and counted like one refused on arrival.
"""

import threading

from repro.service import AnnodaService, ServiceConfig, ServiceRequest

from tests.service.conftest import (
    build_annoda,
    make_service,
    send,
    wait_for_health,
)


def _wait_for_admissions(service, count):
    """Wait until ``count`` requests are seated or waiting (a graceful
    drain only answers the requests that have arrived)."""
    pause = threading.Event()
    for _ in range(3000):
        if service.metrics.value("requests_admitted") >= count:
            return
        pause.wait(0.01)
    raise AssertionError(f"fewer than {count} requests ever arrived")


def _spy_on_budgets(annoda):
    """Record the budget of every question ``annoda`` answers."""
    budgets = []
    ask = annoda.ask

    def spying_ask(question, **kwargs):
        budgets.append(kwargs["budget"])
        return ask(question, **kwargs)

    annoda.ask = spying_ask
    return budgets


class TestGracefulShutdown:
    def test_drains_admitted_requests_before_stopping(self):
        service = make_service(workers=2, queue_capacity=16)
        clients = [
            send(
                service,
                ServiceRequest(question="figure5b", use_cache=False),
            )
            for _ in range(8)
        ]
        _wait_for_admissions(service, len(clients))
        service.shutdown(drain=True, timeout=60)
        for client in clients:
            response = client.result(timeout=30)
            assert response.status == 200
            assert response.body["outcome"] == "ok"
            assert response.body["result"]["gene_count"] > 0

    def test_submissions_after_shutdown_get_503(self):
        service = make_service(workers=1)
        service.shutdown(drain=True, timeout=30)
        response = service.ask(ServiceRequest(question="figure5b"))
        assert response.status == 503
        assert response.body["outcome"] == "shutdown"

    def test_shutdown_is_idempotent(self):
        service = make_service(workers=1)
        service.shutdown(drain=True, timeout=30)
        service.shutdown(drain=True, timeout=30)

    def test_context_manager_drains_on_exit(self):
        annoda = build_annoda()
        with AnnodaService(
            annoda, ServiceConfig(queue_capacity=8, workers=2)
        ) as service:
            clients = [
                send(service, ServiceRequest(question="disease_genes"))
                for _ in range(4)
            ]
            _wait_for_admissions(service, len(clients))
        for client in clients:
            assert client.result(timeout=30).status == 200


class TestFastShutdown:
    def test_flushes_queued_requests_as_503(self, gate):
        service = make_service(gate=gate, workers=1, queue_capacity=8)
        # One request parks on the gate in its seat; the rest wait for
        # the seat and must be refused, not executed.
        clients = [
            send(
                service,
                ServiceRequest(question="figure5b", use_cache=False),
            )
            for _ in range(5)
        ]
        wait_for_health(service, inflight=1, queue_depth=4)
        stopper = threading.Thread(
            target=lambda: service.shutdown(drain=False, timeout=60),
            daemon=True,
        )
        stopper.start()
        # The waiters are answered 503 without the gate opening.
        refused = [client.result(timeout=10) for client in clients[1:]]
        assert [response.status for response in refused] == [503] * 4
        assert all(
            response.body["outcome"] == "shutdown" for response in refused
        )
        # ... and logged and counted like any other answer.
        assert service.metrics.value("requests_completed") == 4
        assert [
            record["outcome"] for record in service.request_log.records()
        ] == ["shutdown"] * 4
        # The running request finishes once the gate opens — its
        # budget was cancelled, so the answer degrades instead of
        # running the full pipeline.
        gate.set()
        response = clients[0].result(timeout=30)
        assert response.status == 200
        stopper.join(timeout=30)
        assert not stopper.is_alive()

    def test_cancels_inflight_budgets(self):
        annoda = build_annoda(
            flaky={"LocusLink": {"latency": 0.3}},
        )
        budgets = _spy_on_budgets(annoda)
        service = make_service(annoda=annoda, workers=1)
        client = send(
            service, ServiceRequest(question="figure5b", use_cache=False)
        )
        # Let the request enter the slow fetch, then pull the plug.
        wait_for_health(service, inflight=1)
        service.shutdown(drain=False, timeout=60)
        response = client.result(timeout=30)
        assert response.status == 200
        [budget] = budgets
        assert budget.cancelled
        assert budget.reason == "service shutdown"
        assert response.body["outcome"] == "degraded"
