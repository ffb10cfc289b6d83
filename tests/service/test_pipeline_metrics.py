"""The ``/metrics`` pipeline section folds every registered counter.

:func:`~repro.service.metrics.execution_counters` reads each
:data:`~repro.trace.metrics.METRICS` name off an answered request's
stats, so grid accounting — shard fan-outs and replica failovers, the
signals an operator of a replica set needs — reaches ``/metrics`` like
every other counter.
"""

from repro.core.annoda import Annoda, AnnodaConfig
from repro.mediator.executor import ExecutionStats
from repro.mediator.fetch import FederationPolicy, FlakyWrapper
from repro.mediator.reconcile import ReconciliationReport
from repro.service import ServiceRequest
from repro.service.metrics import execution_counters
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.trace.metrics import METRICS
from repro.wrappers import default_wrappers

from tests.service.conftest import PARAMETERS, SEED, make_service


def _dead_primary_federation(shards=2):
    """A degrade-policy federation over ``shards``-way sharded stores
    whose GO source is a two-replica set with a blacked-out primary."""
    corpus = AnnotationCorpus.generate(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS)
    )
    annoda = Annoda(config=AnnodaConfig(
        federation=FederationPolicy(on_failure="degrade"),
    ))
    annoda.corpus = corpus
    siblings = {
        wrapper.name: wrapper
        for wrapper in default_wrappers(corpus, shards=shards)
    }
    for wrapper in default_wrappers(corpus, shards=shards):
        if wrapper.name == "GO":
            annoda.add_replicas(
                [FlakyWrapper(wrapper, blackout=True), siblings["GO"]]
            )
        else:
            annoda.add_source(wrapper)
    return annoda


class TestExecutionFold:
    def test_fold_keys_are_the_registry_names(self):
        for reconciliation in (ReconciliationReport(), None):
            folded = execution_counters(ExecutionStats(), reconciliation)
            assert list(folded) == METRICS.names()


class TestGridCountersReachMetrics:
    def test_dead_primary_replica_reports_failovers(self):
        service = make_service(annoda=_dead_primary_federation(), workers=1)
        try:
            response = service.ask(
                ServiceRequest(question="figure5b", use_cache=False),
                timeout=30,
            )
            # The sibling answered: failover, not degradation.
            assert response.status == 200
            assert response.body["outcome"] == "ok"
            pipeline = service.metrics.snapshot()["pipeline"]
            assert pipeline["replica_failovers"] >= 1
            assert pipeline["shard_fans"] >= 1
        finally:
            service.shutdown(drain=True, timeout=30)
