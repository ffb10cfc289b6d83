"""The FetchRequest/FetchReply protocol at the wrapper boundary."""

import pytest

from repro.mediator.fetch import (
    FederatedFetcher,
    FederationPolicy,
    FetchReply,
    FetchRequest,
    FlakyWrapper,
)
from repro.util.errors import IntegrationError
from repro.wrappers import LocusLinkWrapper


@pytest.fixture()
def ll_wrapper(corpus):
    return LocusLinkWrapper(corpus.locuslink)


class TestFetchRequest:
    def test_conditions_normalized_to_plain_triples(self):
        request = FetchRequest([["Symbol", "=", "BRCA1"]])
        assert request.conditions == (("Symbol", "=", "BRCA1"),)

    def test_in_values_frozen_to_tuple(self):
        request = FetchRequest([("LocusID", "in", [3, 1, 2])])
        assert request.conditions[0][2] == (3, 1, 2)

    def test_condition_objects_accepted(self):
        from repro.mediator.decompose import Condition

        request = FetchRequest((Condition("Symbol", "=", "BRCA1"),))
        assert request.conditions == (("Symbol", "=", "BRCA1"),)

    def test_where_sugar(self):
        request = FetchRequest.where(
            ("Organism", "=", "Homo sapiens"), purpose="anchor"
        )
        assert request.purpose == "anchor"
        assert "Organism" in request.render()


class TestWrapperFetchMigration:
    """Satellite: the raw-conditions shim is gone — Wrapper.fetch only
    accepts FetchRequest-shaped arguments."""

    def test_raw_condition_sequence_rejected(self, ll_wrapper):
        conditions = [("Organism", "=", "Homo sapiens")]
        with pytest.raises(TypeError, match="FetchRequest"):
            ll_wrapper.fetch(conditions)  # annoda: noqa=ANN001 -- the hard-TypeError path is exactly what this test covers

    def test_raw_empty_conditions_rejected(self, ll_wrapper):
        with pytest.raises(TypeError, match="no longer accepted"):
            ll_wrapper.fetch(())  # annoda: noqa=ANN001 -- the hard-TypeError path is exactly what this test covers

    def test_request_path_emits_no_warning(self, ll_wrapper, recwarn):
        records = ll_wrapper.fetch(FetchRequest())
        assert len(records) > 0
        assert not [
            warning
            for warning in recwarn.list
            if issubclass(warning.category, DeprecationWarning)
        ]


class TestFetchReply:
    def test_ok_reply_carries_records_and_accounting(self, ll_wrapper):
        fetcher = FederatedFetcher()
        reply = fetcher.fetch(
            ll_wrapper,
            FetchRequest((("Organism", "=", "Homo sapiens"),)),
        )
        assert reply.ok
        assert reply.status == "ok"
        assert len(reply.records) > 0
        assert len(reply.attempts) == 1
        assert reply.attempts[0].outcome == "ok"
        assert reply.retries == 0
        assert reply.elapsed > 0
        # The equality predicate answers from the source index.
        assert reply.index_hits + reply.scan_queries >= 1
        assert reply.raise_if_failed() is reply

    def test_failed_reply_is_a_value_not_an_exception(self, ll_wrapper):
        flaky = FlakyWrapper(ll_wrapper, blackout=True)
        fetcher = FederatedFetcher()
        reply = fetcher.fetch(flaky, FetchRequest())
        assert not reply.ok
        assert reply.status == "error"
        assert reply.records == ()
        assert "injected fault" in reply.error
        with pytest.raises(IntegrationError) as excinfo:
            reply.raise_if_failed()
        assert "'LocusLink'" in str(excinfo.value)

    def test_replies_report_per_attempt_timings(self, ll_wrapper):
        flaky = FlakyWrapper(ll_wrapper, fail_first=2)
        policy = FederationPolicy(retries=3, backoff=0.0)
        reply = FederatedFetcher(policy).fetch(flaky, FetchRequest())
        assert reply.ok
        assert [attempt.outcome for attempt in reply.attempts] == [
            "error", "error", "ok",
        ]
        assert reply.retries == 2
        assert all(attempt.elapsed >= 0 for attempt in reply.attempts)


class TestFederationPolicy:
    def test_rejects_unknown_failure_mode(self):
        with pytest.raises(ValueError):
            FederationPolicy(on_failure="explode")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            FederationPolicy(max_workers=0)

    def test_degrades_flag(self):
        assert FederationPolicy(on_failure="degrade").degrades
        assert not FederationPolicy().degrades

    def test_policy_is_hashable_for_cache_keys(self):
        assert hash(FederationPolicy()) == hash(FederationPolicy())
