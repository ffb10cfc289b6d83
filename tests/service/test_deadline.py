"""Per-request deadlines: expiry degrades, never hangs a request.

Covers the cooperative cancellation seam end to end: the
:class:`~repro.util.cancel.RequestBudget` unit semantics (against a
fake clock), the fetcher's budget handling, and the service-level
guarantee that a deadline-expired request returns a degraded partial
answer within one scheduling quantum of its deadline.
"""

import time

import pytest

from repro.mediator.fetch import (
    FederatedFetcher,
    FederationPolicy,
    FetchRequest,
)
from repro.service import ServiceRequest
from repro.util.cancel import RequestBudget
from repro.util.clock import FakeClock

from tests.service.conftest import (
    build_annoda,
    make_service,
    send,
    wait_for_health,
)

#: The acceptance bar's "one scheduling quantum": generous enough for
#: a loaded CI box, tiny against the seconds an undegraded execution
#: of the latency-injected federation would take.
QUANTUM = 1.0


class TestRequestBudget:
    def test_unbounded_budget_never_expires(self):
        budget = RequestBudget()
        assert budget.remaining() is None
        assert budget.deadline is None
        assert not budget.expired

    def test_remaining_counts_down_on_the_injected_clock(self):
        clock = FakeClock(start=100.0, tick=0.0)
        budget = RequestBudget(deadline=5.0, clock=clock)
        assert budget.remaining() == pytest.approx(5.0)
        clock.advance(3.0)
        assert budget.remaining() == pytest.approx(2.0)
        assert not budget.expired
        clock.advance(3.0)
        assert budget.remaining() == 0.0
        assert budget.expired

    def test_cancel_zeroes_the_remaining_time(self):
        budget = RequestBudget(deadline=60.0)
        budget.cancel("shutdown")
        assert budget.cancelled
        assert budget.remaining() == 0.0
        assert budget.expired
        assert budget.reason == "shutdown"

    def test_cancel_without_deadline_still_expires(self):
        budget = RequestBudget()
        budget.cancel()
        assert budget.remaining() == 0.0
        assert budget.expired

    def test_first_cancel_reason_wins(self):
        budget = RequestBudget()
        budget.cancel("first")
        budget.cancel("second")
        assert budget.reason == "first"

    def test_negative_deadline_is_rejected(self):
        with pytest.raises(ValueError):
            RequestBudget(deadline=-1.0)


class _CountingWrapper:
    name = "Counting"

    def __init__(self):
        self.calls = 0

    def fetch(self, request=()):
        self.calls += 1
        return [{"GeneID": "X"}]


class TestFetcherBudget:
    def test_expired_budget_times_out_without_touching_the_source(self):
        wrapper = _CountingWrapper()
        fetcher = FederatedFetcher(FederationPolicy())
        budget = RequestBudget(deadline=0.0)
        reply = fetcher.fetch(
            wrapper, FetchRequest(purpose="anchor", budget=budget)
        )
        assert reply.status == "timeout"
        assert wrapper.calls == 0
        assert "deadline" in reply.error

    def test_cancelled_budget_times_out_without_touching_the_source(self):
        wrapper = _CountingWrapper()
        fetcher = FederatedFetcher(FederationPolicy())
        budget = RequestBudget()
        budget.cancel("client gone")
        reply = fetcher.fetch(
            wrapper, FetchRequest(purpose="anchor", budget=budget)
        )
        assert reply.status == "timeout"
        assert wrapper.calls == 0
        assert "client gone" in reply.error

    def test_live_budget_lets_the_fetch_through(self):
        wrapper = _CountingWrapper()
        fetcher = FederatedFetcher(FederationPolicy())
        reply = fetcher.fetch(
            wrapper,
            FetchRequest(purpose="anchor", budget=RequestBudget(deadline=60)),
        )
        assert reply.status == "ok"
        assert wrapper.calls == 1

    def test_budget_does_not_change_request_identity(self):
        bare = FetchRequest(purpose="anchor")
        budgeted = FetchRequest(
            purpose="anchor", budget=RequestBudget(deadline=1)
        )
        assert bare == budgeted
        assert hash(bare) == hash(budgeted)


class TestServiceDeadlines:
    def test_expired_deadline_degrades_within_one_quantum(self):
        """A request whose deadline passes mid-execution answers 200
        with the remaining sources degraded — within deadline + one
        scheduling quantum, not after the full slow execution."""
        deadline = 0.05
        latency = 0.4
        annoda = build_annoda(
            flaky={
                name: {"latency": latency}
                for name in ("LocusLink", "GO", "OMIM")
            },
        )
        service = make_service(annoda=annoda, workers=1)
        try:
            started = time.perf_counter()
            response = service.ask(
                ServiceRequest(
                    question="figure5b", deadline=deadline, use_cache=False
                ),
            )
            elapsed = time.perf_counter() - started
            assert response.status == 200
            assert response.body["outcome"] == "degraded"
            assert response.body["deadline_expired"] is True
            assert response.body["result"]["degraded_sources"]
            assert elapsed < deadline + latency + QUANTUM
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_deadline_spent_in_queue_counts(self, gate):
        """Waiting burns the budget: a request that waited out its
        whole deadline for a seat degrades immediately once it gets
        one."""
        service = make_service(gate=gate, workers=1, queue_capacity=4)
        try:
            blocker = send(
                service, ServiceRequest(question="figure5b", use_cache=False)
            )
            wait_for_health(service, inflight=1)
            waiter = send(
                service,
                ServiceRequest(
                    question="disease_genes",
                    deadline=0.02,
                    use_cache=False,
                ),
            )
            wait_for_health(service, queue_depth=1)
            # Park long enough that the waiter's budget is gone before
            # the gate opens and the seat frees up.
            time.sleep(0.1)
            gate.set()
            response = waiter.result(timeout=30)
            assert response.status == 200
            assert response.body["outcome"] == "degraded"
            assert response.body["deadline_expired"] is True
            assert blocker.result(timeout=30).status == 200
        finally:
            gate.set()
            service.shutdown(drain=True, timeout=30)

    def test_default_deadline_from_config_applies(self):
        annoda = build_annoda(
            flaky={"GO": {"latency": 0.3}},
        )
        service = make_service(
            annoda=annoda, workers=1, default_deadline=0.03
        )
        try:
            response = service.ask(
                ServiceRequest(question="figure5b", use_cache=False),
            )
            assert response.status == 200
            assert response.body["deadline"] == pytest.approx(0.03)
            assert response.body["outcome"] == "degraded"
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_generous_deadline_answers_in_full(self):
        service = make_service(workers=1)
        try:
            response = service.ask(
                ServiceRequest(question="figure5b", deadline=60.0),
            )
            assert response.status == 200
            assert response.body["outcome"] == "ok"
            assert response.body["deadline_expired"] is False
            assert response.body["result"]["degraded_sources"] == []
        finally:
            service.shutdown(drain=True, timeout=30)
