"""Replica failover: a dead replica fails over to a sibling *before*
the federation policy ever degrades the source.

Fault injection goes through :class:`FlakyWrapper` decorating
individual replicas of a :class:`ReplicaSet` — the failure composition
order under test is ``replica failover → per-request retries → shard
merge → policy``.
"""

import pytest

from repro.mediator import (
    FederationPolicy,
    FlakyWrapper,
    GlobalQuery,
    LinkConstraint,
    Mediator,
    ReplicaSet,
)
from repro.mediator.decompose import Condition
from repro.mediator.fetch import FetchRequest
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.shard import ShardedSource
from repro.util.errors import IntegrationError
from repro.wrappers import GoWrapper, LocusLinkWrapper, OmimWrapper


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=47,
        parameters=CorpusParameters(
            loci=80, go_terms=50, omim_entries=25, conflict_rate=0.2
        ),
    )


QUERY = GlobalQuery(
    anchor_source="LocusLink",
    links=(
        LinkConstraint(
            "GO",
            "include",
            via="AnnotationID",
            conditions=(Condition("Aspect", "=", "molecular_function"),),
        ),
        LinkConstraint("OMIM", "exclude", via="DiseaseID"),
    ),
)


def build_mediator(corpus, policy=None, go_flaky=(), shards=1):
    """A three-source federation whose GO source is a two-replica set;
    ``go_flaky`` maps replica index -> FlakyWrapper kwargs."""
    mediator = Mediator(federation=policy or FederationPolicy())
    go_flaky = dict(go_flaky)

    def go_stores():
        if shards > 1:
            return ShardedSource(corpus.go, shards)
        return corpus.go

    mediator.register_wrapper(LocusLinkWrapper(corpus.locuslink))
    replicas = []
    for index in range(2):
        wrapper = GoWrapper(go_stores())
        if index in go_flaky:
            wrapper = FlakyWrapper(wrapper, **go_flaky[index])
        replicas.append(wrapper)
    mediator.register_replicas(replicas)
    mediator.register_wrapper(OmimWrapper(corpus.omim))
    return mediator


class TestReplicaSetUnit:
    def test_needs_at_least_one_replica(self):
        with pytest.raises(ValueError):
            ReplicaSet([])

    def test_rejects_mixed_sources(self, corpus):
        with pytest.raises(ValueError):
            ReplicaSet(
                [GoWrapper(corpus.go), OmimWrapper(corpus.omim)]
            )

    def test_delegates_identity_to_primary(self, corpus):
        replica_set = ReplicaSet(
            [GoWrapper(corpus.go), GoWrapper(corpus.go)]
        )
        assert replica_set.name == "GO"
        assert replica_set.replica_count == 2
        assert replica_set.version == corpus.go.version
        assert replica_set.trace_attributes()["replicas"] == 2
        # Duck-typed wrapper surface reaches the primary.
        assert replica_set.supports("GoID", "=")

    def test_preferred_replica_spreads_the_shard_grid(self, corpus):
        replica_set = ReplicaSet(
            [GoWrapper(corpus.go), GoWrapper(corpus.go)]
        )
        whole = FetchRequest((), purpose="test")
        assert replica_set.preferred_replica(whole) == 0
        pinned = [
            FetchRequest((), purpose="test", shard=(index, 4))
            for index in range(4)
        ]
        placements = [
            replica_set.preferred_replica(request) for request in pinned
        ]
        assert placements == [0, 1, 0, 1]

    def test_failover_rotates_and_counts(self, corpus):
        dead = FlakyWrapper(GoWrapper(corpus.go), blackout=True)
        alive = GoWrapper(corpus.go)
        replica_set = ReplicaSet([dead, alive])
        request = FetchRequest((), purpose="test")
        records = replica_set.fetch(request)
        assert len(records) == corpus.go.count()
        assert replica_set.failover_count() == 1
        assert dead.failures == 1

    def test_raises_only_after_every_replica_failed(self, corpus):
        replica_set = ReplicaSet(
            [
                FlakyWrapper(GoWrapper(corpus.go), blackout=True),
                FlakyWrapper(GoWrapper(corpus.go), blackout=True),
            ]
        )
        with pytest.raises(ConnectionError):
            replica_set.fetch(FetchRequest((), purpose="test"))
        # The last replica's failure is terminal, not a failover.
        assert replica_set.failover_count() == 1


class TestFederatedFailover:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_dead_primary_fails_over_before_degrading(self, corpus,
                                                      shards):
        healthy = build_mediator(corpus, shards=shards)
        baseline = healthy.query(QUERY, enrich_links=False)

        mediator = build_mediator(
            corpus, go_flaky={0: dict(blackout=True)}, shards=shards
        )
        result = mediator.query(QUERY, enrich_links=False)
        assert result.gene_ids() == baseline.gene_ids()
        assert result.genes == baseline.genes
        assert result.report.ok
        assert result.report.degraded == ()
        assert result.stats.replica_failovers > 0

    def test_failover_under_degrading_policy_stays_complete(self,
                                                            corpus):
        mediator = build_mediator(
            corpus,
            policy=FederationPolicy(on_failure="degrade"),
            go_flaky={0: dict(blackout=True)},
        )
        result = mediator.query(QUERY, enrich_links=False)
        assert result.report.ok
        assert result.stats.replica_failovers > 0
        assert result.stats.degraded_sources == []

    def test_all_replicas_dead_degrades_the_source(self, corpus):
        mediator = build_mediator(
            corpus,
            policy=FederationPolicy(on_failure="degrade"),
            go_flaky={
                0: dict(blackout=True),
                1: dict(blackout=True),
            },
        )
        result = mediator.query(QUERY, enrich_links=False)
        assert result.report.degraded == ("GO",)

    def test_all_replicas_dead_aborts_under_raise_policy(self, corpus):
        mediator = build_mediator(
            corpus,
            go_flaky={
                0: dict(blackout=True),
                1: dict(blackout=True),
            },
        )
        with pytest.raises(IntegrationError) as excinfo:
            mediator.query(QUERY, enrich_links=False)
        assert "'GO'" in str(excinfo.value)

    def test_transient_primary_failure_recovers(self, corpus):
        # The first GO call dies, every later one succeeds: exactly one
        # failover, never a degradation, across repeat queries.
        mediator = build_mediator(
            corpus, go_flaky={0: dict(fail_first=1)}
        )
        first = mediator.query(QUERY, enrich_links=False)
        assert first.report.ok
        assert first.stats.replica_failovers == 1
        repeat = mediator.query(QUERY, enrich_links=False, use_cache=False)
        assert repeat.report.ok
        assert repeat.stats.replica_failovers == 0
        assert repeat.gene_ids() == first.gene_ids()


class TestNoPoisoning:
    def test_failover_answer_is_safe_to_cache(self, corpus):
        mediator = build_mediator(
            corpus, go_flaky={0: dict(blackout=True)}
        )
        first = mediator.query(QUERY, enrich_links=False)
        assert first.report.ok
        # The cached replay serves the same complete answer.
        cached = mediator.query(QUERY, enrich_links=False)
        assert cached.from_result_cache
        assert cached.gene_ids() == first.gene_ids()

    def test_degraded_run_never_stores_the_whole_answer_artifact(
        self, corpus
    ):
        from repro.mediator.artifacts import ArtifactStore

        artifacts = ArtifactStore()
        flaky = FlakyWrapper(GoWrapper(corpus.go), blackout=True)
        mediator = Mediator(
            federation=FederationPolicy(on_failure="degrade"),
            artifacts=artifacts,
        )
        mediator.register_wrapper(LocusLinkWrapper(corpus.locuslink))
        mediator.register_replicas([flaky, FlakyWrapper(
            GoWrapper(corpus.go), blackout=True
        )])
        mediator.register_wrapper(OmimWrapper(corpus.omim))
        degraded = mediator.query(QUERY, enrich_links=False,
                                  use_cache=False)
        assert degraded.report.degraded == ("GO",)

        # Heal every replica: the same query (same source versions,
        # so the same answer key) must now produce the complete
        # answer — a poisoned answer entry would replay the degraded
        # one.
        flaky.blackout = False
        for wrapper in mediator.wrapper("GO").replicas:
            wrapper.blackout = False
        healed = mediator.query(QUERY, enrich_links=False,
                                use_cache=False)
        assert healed.report.ok
        reference = build_mediator(corpus).query(
            QUERY, enrich_links=False
        )
        assert healed.gene_ids() == reference.gene_ids()
