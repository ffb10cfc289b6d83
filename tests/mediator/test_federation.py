"""Concurrent, fault-tolerant federation at the wrapper boundary.

Covers the :class:`FederatedFetcher` (concurrency, retry, timeout),
graceful degradation through the whole mediator stack (a blacked-out
source yields a *partial* answer instead of an exception), and
answer determinism: the same query returns oid-for-oid identical
results whether fetches run sequentially or on eight workers, with or
without injected faults.
"""

import threading

import pytest

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.decompose import Condition
from repro.mediator.fetch import (
    FederatedFetcher,
    FederationPolicy,
    FetchRequest,
    FlakyWrapper,
)
from repro.mediator.optimizer import OptimizerOptions
from repro.questions.catalog import QuestionCatalog
from repro.util import clock
from repro.util.clock import FakeClock
from repro.util.errors import IntegrationError
from repro.wrappers import default_wrappers

FIGURE5B = QuestionCatalog.figure5b().to_global_query()

SEMIJOIN_QUERY = GlobalQuery(
    anchor_source="LocusLink",
    links=(
        LinkConstraint(
            "GO",
            "include",
            via="AnnotationID",
            conditions=(Condition("Title", "contains", "kinase"),),
        ),
    ),
)

CONDITIONED_GO_QUERY = GlobalQuery(
    anchor_source="LocusLink",
    links=(
        LinkConstraint(
            "GO",
            "include",
            via="AnnotationID",
            conditions=(Condition("Aspect", "=", "molecular_function"),),
        ),
    ),
)


def _mediator(corpus, federation, flaky=None, semijoin=False):
    """A fresh federation over ``corpus``; ``flaky`` maps source name
    -> FlakyWrapper kwargs applied to that wrapper."""
    options = (
        OptimizerOptions(enable_semijoin=True)
        if semijoin
        else OptimizerOptions()
    )
    mediator = Mediator(federation=federation, optimizer_options=options)
    for wrapper in default_wrappers(corpus):
        if flaky and wrapper.name in flaky:
            wrapper = FlakyWrapper(wrapper, **flaky[wrapper.name])
        mediator.register_wrapper(wrapper)
    return mediator


def _snapshot(result):
    """An order-sensitive, oid-for-oid fingerprint of one answer."""
    objects = []
    for path, obj in result.graph.walk(result.root):
        objects.append(
            (path, obj.oid, obj.value if obj.is_atomic else None)
        )
    return tuple(result.gene_ids()), tuple(objects)


class TestFetcherConcurrency:
    def test_replies_come_back_in_job_order(self, corpus):
        wrappers = {w.name: w for w in default_wrappers(corpus)}
        fetcher = FederatedFetcher(FederationPolicy(max_workers=4))
        jobs = [
            (wrappers["LocusLink"], FetchRequest(purpose="a")),
            (wrappers["GO"], FetchRequest(purpose="b")),
            (wrappers["OMIM"], FetchRequest(purpose="c")),
        ]
        replies = fetcher.fetch_all(jobs)
        assert [reply.source for reply in replies] == [
            "LocusLink", "GO", "OMIM",
        ]
        assert all(reply.ok for reply in replies)
        fetcher.close()

    def test_jobs_actually_overlap_on_the_pool(self, corpus):
        wrapper = default_wrappers(corpus)[0]
        threads_seen = set()
        barrier = threading.Barrier(2, timeout=5)

        class _Rendezvous:
            name = wrapper.name
            source = wrapper.source

            def fetch(self, request):
                threads_seen.add(threading.current_thread().name)
                barrier.wait()  # deadlocks unless both jobs run at once
                return wrapper.fetch(request)

        rendezvous = _Rendezvous()
        fetcher = FederatedFetcher(FederationPolicy(max_workers=2))
        replies = fetcher.fetch_all(
            [(rendezvous, FetchRequest()), (rendezvous, FetchRequest())]
        )
        assert all(reply.ok for reply in replies)
        assert len(threads_seen) == 2
        fetcher.close()

    def test_single_worker_runs_inline(self, corpus):
        wrapper = default_wrappers(corpus)[0]
        fetcher = FederatedFetcher(FederationPolicy(max_workers=1))
        replies = fetcher.fetch_all(
            [(wrapper, FetchRequest()), (wrapper, FetchRequest())]
        )
        assert all(reply.ok for reply in replies)

    def test_timeout_abandons_a_hung_source(self, corpus):
        wrapper = default_wrappers(corpus)[0]
        slow = FlakyWrapper(wrapper, latency=0.5)
        policy = FederationPolicy(timeout=0.05, retries=0)
        reply = FederatedFetcher(policy).fetch(slow, FetchRequest())
        assert not reply.ok
        assert reply.status == "timeout"
        assert reply.timeouts == 1

    def test_backoff_waits_between_attempts(self, corpus):
        # The backoff goes through the clock seam, so a FakeClock
        # fast-forwards the waits: the fake clock must observe the full
        # exponential schedule while no real thread ever parks.
        wrapper = default_wrappers(corpus)[0]
        flaky = FlakyWrapper(wrapper, fail_first=2)
        policy = FederationPolicy(retries=2, backoff=0.03)
        fake = FakeClock()
        previous = clock.install(fake)
        try:
            reply = FederatedFetcher(policy).fetch(flaky, FetchRequest())
        finally:
            clock.restore(previous)
        assert reply.ok
        assert len(reply.attempts) == 3
        # backoff * (2**0 + 2**1) = 0.03 + 0.06
        assert fake.now() == pytest.approx(0.09)

    def test_retry_budget_exhausts_to_error(self, corpus):
        wrapper = default_wrappers(corpus)[0]
        flaky = FlakyWrapper(wrapper, fail_first=5)
        policy = FederationPolicy(retries=2, backoff=0.0)
        reply = FederatedFetcher(policy).fetch(flaky, FetchRequest())
        assert not reply.ok
        assert len(reply.attempts) == 3
        assert flaky.failures == 3


class TestGracefulDegradation:
    def test_default_policy_still_raises(self, corpus):
        mediator = _mediator(
            corpus, FederationPolicy(), flaky={"GO": {"blackout": True}}
        )
        with pytest.raises(IntegrationError) as excinfo:
            mediator.query(CONDITIONED_GO_QUERY, enrich_links=False)
        assert "'GO'" in str(excinfo.value)

    def test_blacked_out_link_source_degrades_to_partial_answer(
        self, corpus
    ):
        degraded = _mediator(
            corpus,
            FederationPolicy(on_failure="degrade"),
            flaky={"GO": {"blackout": True}},
        )
        result = degraded.query(CONDITIONED_GO_QUERY, enrich_links=False)
        assert result.report.degraded == ("GO",)
        assert not result.report.ok
        assert result.report.sources["GO"].status == "degraded"
        # The GO constraint was skipped, not silently satisfied: the
        # partial answer is a superset of the complete one.
        healthy = _mediator(corpus, FederationPolicy())
        complete = healthy.query(CONDITIONED_GO_QUERY, enrich_links=False)
        assert set(complete.gene_ids()) <= set(result.gene_ids())
        assert len(result) > 0

    def test_blacked_out_anchor_degrades_to_empty_answer(self, corpus):
        degraded = _mediator(
            corpus,
            FederationPolicy(on_failure="degrade"),
            flaky={"LocusLink": {"blackout": True}},
        )
        result = degraded.query(CONDITIONED_GO_QUERY, enrich_links=False)
        assert "LocusLink" in result.report.degraded
        assert len(result) == 0

    def test_blackout_window_recovers_after_retries(self, corpus):
        mediator = _mediator(
            corpus,
            FederationPolicy(retries=3, backoff=0.0),
            flaky={"GO": {"fail_first": 2}},
        )
        result = mediator.query(CONDITIONED_GO_QUERY, enrich_links=False)
        assert result.report.ok
        assert result.report.counters["retries"] >= 2
        assert result.report.sources["GO"].retries >= 2

    def test_degraded_repr_mentions_the_source(self, corpus):
        degraded = _mediator(
            corpus,
            FederationPolicy(on_failure="degrade"),
            flaky={"GO": {"blackout": True}},
        )
        result = degraded.query(CONDITIONED_GO_QUERY, enrich_links=False)
        assert "degraded: GO" in repr(result)


class TestDeterminism:
    """Satellite: concurrency must not change answers — oid-for-oid."""

    @pytest.mark.parametrize("query", [FIGURE5B, SEMIJOIN_QUERY],
                             ids=["figure5b", "semijoin"])
    def test_sequential_and_concurrent_answers_identical(
        self, corpus, query
    ):
        semijoin = query is SEMIJOIN_QUERY
        sequential = _mediator(
            corpus, FederationPolicy(max_workers=1), semijoin=semijoin
        ).query(query)
        concurrent = _mediator(
            corpus, FederationPolicy(max_workers=8), semijoin=semijoin
        ).query(query)
        assert _snapshot(sequential) == _snapshot(concurrent)

    @pytest.mark.parametrize("query", [FIGURE5B, SEMIJOIN_QUERY],
                             ids=["figure5b", "semijoin"])
    def test_answers_survive_injected_faults_with_retries(
        self, corpus, query
    ):
        semijoin = query is SEMIJOIN_QUERY
        clean = _mediator(
            corpus, FederationPolicy(max_workers=8), semijoin=semijoin
        ).query(query)
        faulty = _mediator(
            corpus,
            FederationPolicy(max_workers=8, retries=4, backoff=0.0),
            flaky={
                "GO": {"fail_first": 1},
                "OMIM": {"fail_first": 1},
            },
            semijoin=semijoin,
        ).query(query)
        assert _snapshot(clean) == _snapshot(faulty)
        assert faulty.report.counters["retries"] >= 1
