"""Fault injection through the whole service path.

Reuses :class:`~repro.mediator.fetch.FlakyWrapper` under the service:
a flaky source yields HTTP 200 *partial* answers whose body carries
the degraded-source report fields, retries recover transient faults,
and a degraded answer never poisons the answer cache: the next healthy
request gets the full answer, not a replay of the truncated one.
"""

from repro.core.annoda import Annoda, AnnodaConfig
from repro.mediator.fetch import FederationPolicy, FlakyWrapper
from repro.questions.catalog import QuestionCatalog
from repro.service import ServiceRequest
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.wrappers import default_wrappers

from tests.service.conftest import PARAMETERS, SEED, build_annoda, make_service


def _blackout_federation(artifact_dir=None):
    """A degrade-policy federation whose OMIM wrapper can be switched
    dark; returns ``(annoda, omim_flaky)``."""
    corpus = AnnotationCorpus.generate(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS)
    )
    annoda = Annoda(config=AnnodaConfig(
        federation=FederationPolicy(on_failure="degrade"),
        artifact_dir=artifact_dir,
    ))
    annoda.corpus = corpus
    omim_flaky = None
    for wrapper in default_wrappers(corpus):
        if wrapper.name == "OMIM":
            wrapper = omim_flaky = FlakyWrapper(wrapper)
        annoda.add_source(wrapper)
    return annoda, omim_flaky


class TestDegradedAnswers:
    def test_blackout_source_yields_200_partial_with_report(self):
        annoda, omim = _blackout_federation()
        omim.blackout = True
        service = make_service(annoda=annoda, workers=2)
        try:
            response = service.ask(
                ServiceRequest(question="disease_genes", use_cache=False)
            )
            assert response.status == 200
            assert response.body["outcome"] == "degraded"
            assert response.body["result"]["degraded_sources"] == ["OMIM"]
            assert response.body["sources"]["OMIM"]["status"] == "degraded"
            assert service.metrics.value("requests_degraded") == 1
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_retries_recover_transient_faults_to_a_full_answer(self):
        annoda = build_annoda(
            policy=FederationPolicy(
                on_failure="degrade", retries=4, backoff=0.0
            ),
            flaky={"GO": {"fail_first": 2}},
        )
        service = make_service(annoda=annoda, workers=1)
        try:
            response = service.ask(
                ServiceRequest(question="figure5b", use_cache=False)
            )
            assert response.status == 200
            assert response.body["outcome"] == "ok"
            assert response.body["result"]["degraded_sources"] == []
            snapshot = service.metrics.snapshot()
            assert snapshot["pipeline"]["retries"] >= 2
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_error_rate_degrades_without_retries(self):
        annoda = build_annoda(
            flaky={"GO": {"blackout": True}},
        )
        service = make_service(annoda=annoda, workers=2)
        try:
            response = service.ask(
                ServiceRequest(question="figure5b", use_cache=False)
            )
            assert response.status == 200
            assert "GO" in response.body["result"]["degraded_sources"]
        finally:
            service.shutdown(drain=True, timeout=30)


class TestCachesNeverPoisoned:
    def test_degraded_answer_not_served_to_the_next_healthy_request(
        self, tmp_path
    ):
        """Answer cache end-to-end pin: outage, then recovery — the
        post-recovery answer is full, not the cached partial."""
        annoda, omim = _blackout_federation(artifact_dir=str(tmp_path))
        # The true answer, from an identically-seeded healthy twin.
        twin, _ = _blackout_federation()
        expected = sorted(
            twin.ask(QuestionCatalog.disease_genes()).gene_ids()
        )

        service = make_service(annoda=annoda, workers=1)
        try:
            omim.blackout = True
            dark = service.ask(
                ServiceRequest(question="disease_genes", use_cache=False)
            )
            assert dark.body["outcome"] == "degraded"
            assert dark.body["result"]["gene_ids"] != expected

            omim.blackout = False
            healthy = service.ask(
                ServiceRequest(question="disease_genes", use_cache=False)
            )
            assert healthy.status == 200
            assert healthy.body["outcome"] == "ok"
            assert healthy.body["result"]["degraded_sources"] == []
            assert healthy.body["result"]["gene_ids"] == expected
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_budget_degraded_answer_not_stored_in_result_cache(self):
        """A deadline-truncated answer must not satisfy a later repeat
        of the same question made with a fresh budget."""
        annoda = build_annoda(
            flaky={
                name: {"latency": 0.15}
                for name in ("LocusLink", "GO", "OMIM")
            },
        )
        service = make_service(annoda=annoda, workers=1)
        try:
            truncated = service.ask(
                ServiceRequest(question="figure5b", deadline=0.02)
            )
            assert truncated.body["outcome"] == "degraded"

            full = service.ask(ServiceRequest(question="figure5b"))
            assert full.status == 200
            assert full.body["outcome"] == "ok"
            assert (
                full.body["result"]["gene_count"]
                > truncated.body["result"]["gene_count"]
            )
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_fault_degraded_answer_is_cached_like_budgetless_queries(self):
        """Only *budget-caused* truncation bypasses the result cache.
        A source-fault-degraded answer under a live (unexpired) budget
        caches exactly as the same query without a budget would, so a
        flapping source doesn't force a full re-execution per repeat."""
        annoda, omim = _blackout_federation()
        omim.blackout = True
        service = make_service(annoda=annoda, workers=1)
        try:
            first = service.ask(ServiceRequest(question="disease_genes"))
            assert first.body["outcome"] == "degraded"
            rows_after_first = service.metrics.snapshot()["pipeline"]["rows"]
            second = service.ask(ServiceRequest(question="disease_genes"))
            assert second.body["outcome"] == "degraded"
            assert second.body["result"] == first.body["result"]
            # The repeat was a result-cache hit: no new pipeline work.
            rows_after_second = (
                service.metrics.snapshot()["pipeline"]["rows"]
            )
            assert rows_after_second == rows_after_first
            assert service.metrics.value("result_cache_hits") == 1
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_healthy_answers_are_cached_across_requests(self):
        """The flip side: clean repeats do hit the result cache (the
        second identical request does zero new fetching)."""
        service = make_service(workers=1)
        try:
            first = service.ask(ServiceRequest(question="figure5b"))
            rows_after_first = service.metrics.snapshot()["pipeline"]["rows"]
            second = service.ask(ServiceRequest(question="figure5b"))
            rows_after_second = (
                service.metrics.snapshot()["pipeline"]["rows"]
            )
            assert first.body["result"] == second.body["result"]
            # The cached repeat did no new pipeline work, so its
            # (replayed) execution stats are not folded in again.
            assert rows_after_second == rows_after_first
            assert service.metrics.value("result_cache_hits") == 1
        finally:
            service.shutdown(drain=True, timeout=30)
