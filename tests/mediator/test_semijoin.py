"""Tests for the semijoin optimization (the future-work optimizer)."""

import pytest

from repro.mediator import (
    GlobalQuery,
    LinkConstraint,
    Mediator,
    OptimizerOptions,
)
from repro.mediator.artifacts import ArtifactStore
from repro.mediator.decompose import Condition
from repro.mediator.executor import Executor
from repro.wrappers import default_wrappers


def selective_query():
    """Anchor unconditioned; the GO link is highly selective."""
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(
                    Condition("Title", "contains", "kinase"),
                ),
            ),
        ),
    )


def build_mediator(corpus, **options):
    mediator = Mediator(
        optimizer_options=OptimizerOptions(**options)
    )
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    return mediator


class TestPlanning:
    def test_selective_link_drives_anchor(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        plan = mediator.plan(selective_query())
        assert plan.anchor.semijoin == ("GO", "GoID")

    def test_disabled_by_default(self, corpus):
        mediator = build_mediator(corpus)
        plan = mediator.plan(selective_query())
        assert plan.anchor.semijoin is None

    def test_unselective_link_does_not_drive(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(Condition("Obsolete", "=", False),),
                ),
            ),
        )
        plan = mediator.plan(query)
        # 'Obsolete = False' matches ~everything: not selective enough.
        assert plan.anchor.semijoin is None

    def test_exclude_link_never_drives(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "exclude",
                    via="AnnotationID",
                    conditions=(Condition("Title", "contains", "kinase"),),
                ),
            ),
        )
        plan = mediator.plan(query)
        assert plan.anchor.semijoin is None

    def test_symbol_join_never_drives(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "OMIM",
                    "include",
                    via="DiseaseID",
                    symbol_join=True,
                    conditions=(Condition("Title", "contains", "A"),),
                ),
            ),
        )
        plan = mediator.plan(query)
        assert plan.anchor.semijoin is None

    def test_explain_mentions_semijoin(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        assert "SEMIJOIN" in mediator.plan(selective_query()).explain()


class TestExecution:
    def test_same_answer_as_scan_plan(self, corpus):
        semijoin = build_mediator(corpus, enable_semijoin=True)
        scan = build_mediator(corpus)
        fast = semijoin.query(selective_query(), enrich_links=False)
        slow = scan.query(selective_query(), enrich_links=False)
        assert set(fast.gene_ids()) == set(slow.gene_ids())
        assert len(fast) > 0

    def test_ships_fewer_anchor_rows(self, corpus):
        semijoin = build_mediator(corpus, enable_semijoin=True)
        scan = build_mediator(corpus)
        fast = semijoin.query(selective_query(), enrich_links=False)
        slow = scan.query(selective_query(), enrich_links=False)
        assert (
            fast.report.rows_fetched["LocusLink"]
            < slow.report.rows_fetched["LocusLink"]
        )

    def test_respects_anchor_conditions(self, corpus):
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(Condition("Species", "=", "Homo sapiens"),),
            links=selective_query().links,
        )
        semijoin = build_mediator(corpus, enable_semijoin=True)
        scan = build_mediator(corpus)
        fast = semijoin.query(query, enrich_links=False)
        slow = scan.query(query, enrich_links=False)
        assert set(fast.gene_ids()) == set(slow.gene_ids())
        for gene in fast.genes:
            assert gene["Species"] == "Homo sapiens"

    def test_respects_residual_conditions(self, corpus):
        sample = corpus.locuslink.all_records()[0]
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(
                # '=' on Description is not native: residual predicate.
                Condition("Definition", "!=", sample.description),
            ),
            links=selective_query().links,
        )
        semijoin = build_mediator(corpus, enable_semijoin=True)
        scan = build_mediator(corpus)
        fast = semijoin.query(query, enrich_links=False)
        slow = scan.query(query, enrich_links=False)
        assert set(fast.gene_ids()) == set(slow.gene_ids())

    def test_batched_matches_per_id_loop(self, corpus):
        """The single ``in`` fetch and the N+1 equality loop are the
        same semijoin, differently shipped."""
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = selective_query()
        plan = mediator.plan(query)
        assert plan.anchor.semijoin is not None
        batched = _execute(mediator, plan, query, batch_fetch=True)
        per_id = _execute(mediator, plan, query, batch_fetch=False)
        assert batched.gene_ids() == per_id.gene_ids()
        assert len(batched) > 0
        assert batched.report.counters["batched_fetches"] > 0
        assert per_id.report.counters["batched_fetches"] == 0
        # The batched fetch never ships more: the per-id loop re-ships
        # an anchor once per matching link id, the batch ships it once.
        assert (
            batched.report.rows_fetched["LocusLink"]
            <= per_id.report.rows_fetched["LocusLink"]
        )

    def test_multi_link_query_equivalent(self, corpus):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(
                        Condition("Title", "contains", "kinase"),
                    ),
                ),
                LinkConstraint(
                    "OMIM", "exclude", via="DiseaseID", symbol_join=True
                ),
            ),
        )
        semijoin = build_mediator(corpus, enable_semijoin=True)
        scan = build_mediator(corpus)
        fast = semijoin.query(query, enrich_links=False)
        slow = scan.query(query, enrich_links=False)
        assert set(fast.gene_ids()) == set(slow.gene_ids())

    def test_driver_among_links_into_one_source(self, corpus):
        """Two include-links into GO with one via label: the driver is
        the step the rule chose (the kinase one), not the first GO
        step, which is pruned and fetches nothing."""
        kinase = Condition("Title", "contains", "kinase")
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint("GO", "include", via="AnnotationID"),
                LinkConstraint(
                    "GO", "include", via="AnnotationID",
                    conditions=(kinase,),
                ),
            ),
        )
        semijoin = build_mediator(corpus, enable_semijoin=True)
        plan = semijoin.plan(query)
        driver = plan.link_steps[plan.driver_index]
        assert not driver.pruned
        assert driver.pushed == (("Name", "contains", "kinase"),)
        fast = semijoin.query(query, enrich_links=False)
        slow = build_mediator(corpus).query(query, enrich_links=False)
        assert set(fast.gene_ids()) == set(slow.gene_ids())
        assert len(slow) == 8


def _execute(mediator, plan, query, batch_fetch):
    executor = Executor(
        mediator._wrappers,
        mediator.mapping_module,
        mediator.reconciler,
        artifacts=ArtifactStore(),
        batch_fetch=batch_fetch,
    )
    return executor.execute(plan, query, enrich_links=False)


def dead_end_query():
    """A semijoin-shaped query whose driving link matches nothing."""
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(
                    Condition("Title", "contains", "zz-no-such-term"),
                ),
            ),
        ),
    )


class TestFetchAccounting:
    """Regression: the anchor source must appear in the fetch
    accounting exactly once even when the driving link's allowed set is
    empty and no anchor fetch is issued at all."""

    def test_empty_allowed_set_batched(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = dead_end_query()
        plan = mediator.plan(query)
        assert plan.anchor.semijoin is not None
        result = _execute(mediator, plan, query, batch_fetch=True)
        assert len(result) == 0
        assert result.report.rows_fetched["LocusLink"] == 0
        assert result.report.counters["batched_fetches"] == 0

    def test_empty_allowed_set_per_id(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = dead_end_query()
        plan = mediator.plan(query)
        result = _execute(mediator, plan, query, batch_fetch=False)
        assert len(result) == 0
        assert result.report.rows_fetched["LocusLink"] == 0

    def test_nonempty_allowed_set_single_entry(self, corpus):
        mediator = build_mediator(corpus, enable_semijoin=True)
        query = selective_query()
        plan = mediator.plan(query)
        result = _execute(mediator, plan, query, batch_fetch=True)
        # One accounting entry per source, anchor included.
        assert set(result.report.rows_fetched) == {"LocusLink", "GO"}
        assert result.report.rows_fetched["LocusLink"] > 0
