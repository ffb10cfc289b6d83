"""Replica failover: a dead replica fails over to a sibling *before*
the federation policy ever degrades the source.

Fault injection goes through :class:`FlakyWrapper` decorating
individual replicas of a :class:`ReplicaSet` — the failure composition
order under test is ``replica failover → per-request retries →
policy``.  Replication never changes an answer: every catalog question
is checked on two-replica sets against plain wrappers.
"""

import pytest

from repro import Annoda
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
from repro.sources.base import new_tally, tallying
from repro.trace import TraceRecorder, counter_totals
from repro.util.errors import IntegrationError
from repro.wrappers import (
    GoWrapper,
    LocusLinkWrapper,
    OmimWrapper,
    PubmedLikeWrapper,
    SwissProtLikeWrapper,
    default_wrappers,
)


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


def build_mediator(corpus, policy=None, go_flaky=()):
    """A three-source federation whose GO source is a two-replica set;
    ``go_flaky`` maps replica index -> FlakyWrapper kwargs."""
    mediator = Mediator(federation=policy or FederationPolicy())
    go_flaky = dict(go_flaky)
    mediator.register_wrapper(LocusLinkWrapper(corpus.locuslink))
    replicas = []
    for index in range(2):
        wrapper = GoWrapper(corpus.go)
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
        assert len(replica_set.replicas) == 2
        assert replica_set.version == corpus.go.version
        assert replica_set.trace_attributes()["replicas"] == 2
        # Duck-typed wrapper surface reaches the primary.
        assert replica_set.supports("GoID", "=")

    def test_every_fetch_starts_at_the_primary(self, corpus):
        # Healthy replicas that only count calls: the link fetch and
        # the enrichment fetch both go to the primary, never the
        # sibling, and nothing counts as a failover.
        mediator = build_mediator(corpus, go_flaky={0: {}, 1: {}})
        primary, sibling = mediator.wrapper("GO").replicas
        result = mediator.query(QUERY, use_cache=False)
        assert result.report.sources["GO"].fetches >= 2
        assert primary.calls == result.report.sources["GO"].fetches
        assert sibling.calls == 0
        assert result.report.counters["replica_failovers"] == 0

    def test_failover_rotates_and_counts(self, corpus):
        dead = FlakyWrapper(GoWrapper(corpus.go), blackout=True)
        alive = GoWrapper(corpus.go)
        replica_set = ReplicaSet([dead, alive])
        request = FetchRequest((), purpose="test")
        with tallying(new_tally()) as tally:
            records = replica_set.fetch(request)
        assert len(records) == corpus.go.count()
        assert tally["replica_failovers"] == 1
        assert dead.failures == 1

    def test_raises_only_after_every_replica_failed(self, corpus):
        replica_set = ReplicaSet(
            [
                FlakyWrapper(GoWrapper(corpus.go), blackout=True),
                FlakyWrapper(GoWrapper(corpus.go), blackout=True),
            ]
        )
        with tallying(new_tally()) as tally:
            with pytest.raises(ConnectionError):
                replica_set.fetch(FetchRequest((), purpose="test"))
        # The last replica's failure is terminal, not a failover.
        assert tally["replica_failovers"] == 1


class TestFederatedFailover:
    def test_dead_primary_fails_over_before_degrading(self, corpus):
        healthy = build_mediator(corpus)
        baseline = healthy.query(QUERY, enrich_links=False)

        mediator = build_mediator(
            corpus, go_flaky={0: dict(blackout=True)}
        )
        result = mediator.query(QUERY, enrich_links=False)
        assert result.gene_ids() == baseline.gene_ids()
        assert result.genes == baseline.genes
        assert result.report.ok
        assert result.report.degraded == ()
        assert result.report.counters["replica_failovers"] > 0

    def test_failover_under_degrading_policy_stays_complete(self,
                                                            corpus):
        mediator = build_mediator(
            corpus,
            policy=FederationPolicy(on_failure="degrade"),
            go_flaky={0: dict(blackout=True)},
        )
        result = mediator.query(QUERY, enrich_links=False)
        assert result.report.ok
        assert result.report.counters["replica_failovers"] > 0
        assert result.report.degraded == ()

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
        assert first.report.counters["replica_failovers"] == 1
        repeat = mediator.query(QUERY, enrich_links=False, use_cache=False)
        assert repeat.report.ok
        assert repeat.report.counters["replica_failovers"] == 0
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


class TestFailoverTrace:
    """The ``replica_failovers`` counter rides the execute span and
    reconciles with :func:`counter_totals` and the flat stats."""

    def test_failover_counter_reconciles(self, corpus):
        mediator = build_mediator(
            corpus, go_flaky={0: dict(blackout=True)}
        )
        result = mediator.query(
            QUERY, enrich_links=False, recorder=TraceRecorder()
        )
        failovers = result.report.counters["replica_failovers"]
        assert failovers > 0
        execute = result.trace.find("execute")
        assert execute.counters["replica_failovers"] == failovers
        assert counter_totals(result.trace)["replica_failovers"] == (
            failovers
        )
        assert result.report.ok

    def test_healthy_run_attaches_no_failover_counter(self, corpus):
        result = build_mediator(corpus).query(
            QUERY, enrich_links=False, recorder=TraceRecorder()
        )
        assert result.report.counters["replica_failovers"] == 0
        assert "replica_failovers" not in counter_totals(result.trace)


# -- replication never changes an answer ------------------------------------

SEED = 13
PARAMETERS = dict(loci=120, go_terms=80, omim_entries=50,
                  conflict_rate=0.2)

QUESTIONS = {
    "figure5b": lambda catalog: catalog.figure5b(),
    "disease_genes": lambda catalog: catalog.disease_genes(),
    "unannotated_genes": lambda catalog: catalog.unannotated_genes(),
    "genes_by_annotation_keyword": lambda catalog: (
        catalog.genes_by_annotation_keyword("binding")
    ),
    "genes_under_term": lambda catalog: (
        catalog.genes_under_term("GO:0000002")
    ),
    "cited_disease_genes": lambda catalog: catalog.cited_disease_genes(),
}


#: Execution counters replication must leave unchanged (the
#: ``replica_failovers`` counter is the one that may differ, and only
#: when a replica fails).
REPLICA_INDEPENDENT_COUNTERS = (
    "rows",
    "residual_evaluations",
    "anchors_considered",
    "anchors_returned",
    "batched_fetches",
    "enrichment_cache_hits",
    "retries",
    "timeouts",
)


def build_federation(replicated):
    """The five-source federation: the three default sources (each a
    two-replica set when ``replicated``), plus citations and
    proteins."""
    parameters = CorpusParameters(**PARAMETERS)
    if replicated:
        annoda = Annoda()
        corpus = AnnotationCorpus.generate(seed=SEED, parameters=parameters)
        for wrappers in zip(default_wrappers(corpus),
                            default_wrappers(corpus)):
            annoda.add_replicas(list(wrappers))
    else:
        annoda = Annoda.with_default_sources(
            seed=SEED, parameters=parameters
        )
        corpus = annoda.corpus
    annoda.add_source(
        PubmedLikeWrapper(corpus.make_citation_store(count=60))
    )
    annoda.add_source(SwissProtLikeWrapper(corpus.make_protein_store()))
    return annoda


class TestCatalogEquivalence:
    @pytest.mark.parametrize("name", sorted(QUESTIONS))
    def test_replicated_answers_are_byte_identical(self, name):
        plain = build_federation(replicated=False)
        replicated = build_federation(replicated=True)
        assert isinstance(replicated.mediator.wrapper("GO"), ReplicaSet)
        expected = plain.ask(QUESTIONS[name](plain.catalog))
        result = replicated.ask(QUESTIONS[name](replicated.catalog))
        assert result.gene_ids() == expected.gene_ids()
        assert result.genes == expected.genes
        assert replicated.render_integrated_view(result) == (
            plain.render_integrated_view(expected)
        )
        assert result.report.rows_fetched == expected.report.rows_fetched
        assert result.report.degraded == expected.report.degraded
        for key in REPLICA_INDEPENDENT_COUNTERS:
            assert result.report.counters[key] == (
                expected.report.counters[key]
            ), f"counter {key!r} diverged on {name} with replicas"
        assert result.report.ok
