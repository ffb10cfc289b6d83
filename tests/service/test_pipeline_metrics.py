"""The ``/metrics`` pipeline section folds every registered counter.

:class:`~repro.service.metrics.ServiceMetrics` sums each answered
request's ``report.counters``, which hold every
:data:`~repro.trace.metrics.METRICS` name, so replica failovers — the
signal an operator of a replica set needs — reach ``/metrics`` like
every other counter.
"""

from repro.core.annoda import Annoda, AnnodaConfig
from repro.mediator.executor import ExecutionReport
from repro.mediator.fetch import FederationPolicy, FlakyWrapper
from repro.mediator.reconcile import ReconciliationReport
from repro.service import ServiceRequest
from repro.service.metrics import ServiceMetrics
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.trace.metrics import METRICS
from repro.wrappers import default_wrappers

from tests.service.conftest import (
    PARAMETERS,
    SEED,
    build_annoda,
    make_service,
)


def _dead_primary_federation():
    """A degrade-policy federation whose GO source is a two-replica set
    with a blacked-out primary."""
    corpus = AnnotationCorpus.generate(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS)
    )
    annoda = Annoda(config=AnnodaConfig(
        federation=FederationPolicy(on_failure="degrade"),
    ))
    annoda.corpus = corpus
    siblings = {
        wrapper.name: wrapper
        for wrapper in default_wrappers(corpus)
    }
    for wrapper in default_wrappers(corpus):
        if wrapper.name == "GO":
            annoda.add_replicas(
                [FlakyWrapper(wrapper, blackout=True), siblings["GO"]]
            )
        else:
            annoda.add_source(wrapper)
    return annoda


class TestExecutionFold:
    def test_fold_keys_are_the_registry_names(self):
        report = ExecutionReport(ReconciliationReport())
        assert list(report.counters) == METRICS.names()
        for position, name in enumerate(METRICS.names()):
            report.incr(name, position + 1)

        class Answered:
            pass

        result = Answered()
        result.report = report
        metrics = ServiceMetrics()
        metrics.observe_result(result)
        pipeline = metrics.snapshot()["pipeline"]
        assert list(pipeline) == METRICS.names()
        assert pipeline == report.counters


class TestGridCountersReachMetrics:
    def test_dead_primary_replica_reports_failovers(self):
        service = make_service(annoda=_dead_primary_federation(), workers=1)
        try:
            response = service.ask(
                ServiceRequest(question="figure5b", use_cache=False)
            )
            # The sibling answered: failover, not degradation.
            assert response.status == 200
            assert response.body["outcome"] == "ok"
            pipeline = service.metrics.snapshot()["pipeline"]
            assert pipeline["replica_failovers"] >= 1
        finally:
            service.shutdown(drain=True, timeout=30)


class TestMissAccounting:
    def test_replay_racing_its_miss_keeps_the_miss_counted(self):
        """The mediator marks a cached result as replayed on the shared
        object.  A replay that lands between the miss storing its
        result and the service accounting that miss must not turn the
        miss into a hit: its pipeline work is still folded in once."""
        annoda = build_annoda()
        real_ask = annoda.ask
        calls = []

        def ask_then_replay(question, **kwargs):
            result = real_ask(question, **kwargs)
            if not calls:
                calls.append(question)
                assert real_ask(question, **kwargs) is result
            return result

        annoda.ask = ask_then_replay
        service = make_service(annoda=annoda, workers=1)
        try:
            response = service.ask(ServiceRequest(question="figure5b"))
            assert response.status == 200
            snapshot = service.metrics.snapshot()
            assert snapshot["pipeline"]["rows"] > 0
            assert snapshot["service"]["result_cache_hits"] == 0
            service.ask(ServiceRequest(question="figure5b"))
            again = service.metrics.snapshot()
            assert again["pipeline"] == snapshot["pipeline"]
            assert again["service"]["result_cache_hits"] == 1
        finally:
            service.shutdown(drain=True, timeout=30)
