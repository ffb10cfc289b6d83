"""The plan IR: logical tree shape, rule reports, lowering invariants.

Locks in the three-layer planning contract:

- ``build_logical`` produces the canonical tree shape for decomposed
  subqueries (Scan/Filter/ClosureFilter per source, one join layer per
  link, Reconcile/Enrich/Project on top);
- every named optimizer rule records fired/skipped with a reason,
  under every ablation;
- logical->physical lowering preserves the (source, purpose) step
  multiset under *all* OptimizerOptions ablation combinations;
- the physical stage DAG and fingerprints stay coherent with the
  steps.
"""

from collections import Counter
from itertools import product

import pytest

from repro.mediator import (
    GlobalQuery,
    LinkConstraint,
    Mediator,
    Optimizer,
    OptimizerOptions,
    QueryDecomposer,
)
from repro.mediator.decompose import Condition
from repro.mediator.plan import (
    RULE_NAMES,
    AntiJoin,
    ClosureFilter,
    Enrich,
    Filter,
    LogicalPlan,
    PhysicalPlan,
    Project,
    Reconcile,
    RuleReport,
    Scan,
    SemiJoin,
    build_logical,
)
from repro.util.errors import ConfigurationError

from tests.mediator.test_closure import term_with_descendants


def conditioned_query():
    return GlobalQuery(
        anchor_source="LocusLink",
        conditions=(
            Condition("Species", "=", "Homo sapiens"),
            Condition("Definition", "contains", "kinase"),
        ),
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(
                    Condition("Aspect", "=", "molecular_function"),
                ),
            ),
            LinkConstraint("OMIM", "exclude", via="DiseaseID"),
        ),
    )


def selective_query():
    """Anchor unconditioned; the GO link is highly selective (the
    semijoin rule's home turf)."""
    return GlobalQuery(
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


def symbol_join_query():
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "OMIM", "exclude", via="DiseaseID", symbol_join=True
            ),
        ),
    )


def reverse_join_query():
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "SwissProt", "include", via="ProteinID",
                reverse_join=True,
            ),
        ),
    )


@pytest.fixture()
def five_source_mediator(corpus):
    from repro.wrappers import SwissProtLikeWrapper, default_wrappers

    proteins = corpus.make_protein_store(
        coverage=0.5, uncurated_rate=0.4
    )
    mediator = Mediator()
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    mediator.register_wrapper(SwissProtLikeWrapper(proteins))
    return mediator


def closure_query(corpus):
    term = term_with_descendants(corpus)
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(Condition("AnnotationID", "under", term),),
            ),
        ),
    )


def subqueries_for(mediator, query):
    return QueryDecomposer(mediator.mapping_module).decompose(query)


def optimizer_for(mediator, options=None):
    return Optimizer(
        {name: mediator.wrapper(name) for name in mediator.sources()},
        options,
    )


class TestLogicalShape:
    def test_tree_layers_in_order(self, mediator):
        logical = build_logical(
            subqueries_for(mediator, conditioned_query())
        )
        project = logical.root
        assert isinstance(project, Project)
        enrich = project.child
        assert isinstance(enrich, Enrich)
        reconcile = enrich.child
        assert isinstance(reconcile, Reconcile)
        # Link layers are left-deep in decomposition order: the
        # topmost join is the last link (OMIM exclude).
        anti = reconcile.child
        assert isinstance(anti, AntiJoin)
        semi = anti.left
        assert isinstance(semi, SemiJoin)
        anchor_filter = semi.left
        assert isinstance(anchor_filter, Filter)
        assert isinstance(anchor_filter.child, Scan)
        assert anchor_filter.child.purpose == "anchor"

    def test_under_conditions_become_closure_filter(
        self, mediator, corpus
    ):
        logical = build_logical(
            subqueries_for(mediator, closure_query(corpus))
        )
        closures = [
            node
            for node in logical.walk()
            if isinstance(node, ClosureFilter)
        ]
        assert len(closures) == 1
        assert closures[0].conditions[0][1] == "under"

    def test_scans_match_subqueries(self, mediator):
        subqueries = subqueries_for(mediator, conditioned_query())
        logical = build_logical(subqueries)
        assert Counter(
            (scan.source_name, scan.purpose) for scan in logical.scans()
        ) == Counter(
            (sub.source_name, sub.purpose) for sub in subqueries
        )

    def test_anchor_under_rejected_at_build(self, mediator):
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(
                Condition("AnnotationID", "under", "GO:0000001"),
            ),
        )
        with pytest.raises(ConfigurationError, match="ontology link"):
            build_logical(subqueries_for(mediator, query))

    def test_no_anchor_rejected(self):
        with pytest.raises(ConfigurationError, match="no anchor"):
            build_logical([])

    def test_render_and_dict_cover_every_node(self, mediator):
        logical = build_logical(
            subqueries_for(mediator, conditioned_query())
        )
        text = logical.render()
        assert text.startswith("logical plan:")
        for node in logical.walk():
            assert node.label().split(" ")[0] in text
        as_dict = logical.to_dict()
        assert as_dict["node"] == "Project"

    def test_decomposer_shortcut(self, mediator, corpus):
        decomposer = QueryDecomposer(mediator.mapping_module)
        logical = decomposer.decompose_logical(conditioned_query())
        assert isinstance(logical, LogicalPlan)
        assert len(logical.scans()) == 3


class TestRuleReports:
    def test_every_rule_always_reports(self, mediator):
        plan = optimizer_for(mediator).plan(
            subqueries_for(mediator, conditioned_query())
        )
        assert tuple(r.rule for r in plan.rules.records) == RULE_NAMES
        for record in plan.rules.records:
            assert record.reason  # never empty

    def test_disabled_rules_record_skip_reason(self, mediator):
        options = OptimizerOptions(
            enable_pushdown=False,
            enable_pruning=False,
            enable_ordering=False,
            enable_semijoin=False,
        )
        plan = optimizer_for(mediator, options).plan(
            subqueries_for(mediator, conditioned_query())
        )
        assert plan.rules.fired() == ()
        for record in plan.rules.records:
            assert not record.fired
            assert "disabled by OptimizerOptions" in record.reason

    def test_pushdown_and_pruning_fire_on_conditioned_query(
        self, mediator
    ):
        plan = optimizer_for(mediator).plan(
            subqueries_for(mediator, conditioned_query())
        )
        assert "predicate_pushdown" in plan.rules.fired()
        assert "link_fetch_pruning" in plan.rules.fired()
        pushdown = plan.rules.record("predicate_pushdown")
        assert "pushed" in pushdown.reason

    def test_semijoin_rule_fires_on_selective_query(self, mediator):
        options = OptimizerOptions(enable_semijoin=True)
        plan = optimizer_for(mediator, options).plan(
            subqueries_for(mediator, selective_query())
        )
        assert "semijoin_anchor" in plan.rules.fired()
        assert plan.anchor.semijoin == ("GO", "GoID")
        assert plan.driver_index is not None
        driver = plan.link_steps[plan.driver_index]
        assert driver.source_name == "GO"

    def test_semijoin_skip_reason_without_selective_link(self, mediator):
        options = OptimizerOptions(enable_semijoin=True)
        unselective = GlobalQuery(
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
        plan = optimizer_for(mediator, options).plan(
            subqueries_for(mediator, unselective)
        )
        record = plan.rules.record("semijoin_anchor")
        assert not record.fired
        assert "selective" in record.reason

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError):
            RuleReport().record("no_such_rule")


ALL_ABLATIONS = [
    OptimizerOptions(
        enable_pushdown=pushdown,
        enable_pruning=pruning,
        enable_ordering=ordering,
        enable_semijoin=semijoin,
    )
    for pushdown, pruning, ordering, semijoin in product(
        (False, True), repeat=4
    )
]


class TestLoweringInvariants:
    """Property: lowering preserves the step multiset under every
    ablation combination, for every query shape."""

    @pytest.mark.parametrize(
        "query_builder",
        [
            lambda corpus: conditioned_query(),
            lambda corpus: selective_query(),
            lambda corpus: symbol_join_query(),
            closure_query,
        ],
        ids=["conditioned", "selective", "symbol-join", "closure"],
    )
    def test_step_multiset_preserved(
        self, mediator, corpus, query_builder
    ):
        query = query_builder(corpus)
        subqueries = subqueries_for(mediator, query)
        expected = Counter(
            (sub.source_name, sub.purpose) for sub in subqueries
        )
        for options in ALL_ABLATIONS:
            optimizer = optimizer_for(mediator, options)
            logical = optimizer.build_logical(subqueries)
            assert Counter(
                (scan.source_name, scan.purpose)
                for scan in logical.scans()
            ) == expected
            optimized, rules = optimizer.optimize_logical(logical)
            plan = optimizer.lower(optimized, rules=rules)
            assert isinstance(plan, PhysicalPlan)
            assert Counter(
                (step.source_name, step.purpose)
                for step in plan.steps()
            ) == expected, f"multiset changed under {options}"

    def test_step_multiset_preserved_reverse_join(
        self, five_source_mediator
    ):
        subqueries = subqueries_for(
            five_source_mediator, reverse_join_query()
        )
        expected = Counter(
            (sub.source_name, sub.purpose) for sub in subqueries
        )
        for options in ALL_ABLATIONS:
            plan = optimizer_for(five_source_mediator, options).plan(
                subqueries
            )
            assert Counter(
                (step.source_name, step.purpose)
                for step in plan.steps()
            ) == expected
            # Reverse joins are answered from the linked source's
            # back-references: never pruned, whatever the ablation.
            assert not plan.link_steps[0].pruned

    def test_conditions_conserved_across_lowering(self, mediator):
        subqueries = subqueries_for(mediator, conditioned_query())
        by_source = {
            sub.source_name: Counter(tuple(c) for c in sub.local_conditions)
            for sub in subqueries
        }
        for options in ALL_ABLATIONS:
            plan = optimizer_for(mediator, options).plan(subqueries)
            for step in plan.steps():
                conserved = Counter(step.pushed) + Counter(step.residual)
                conserved += Counter(step.closure)
                assert conserved == by_source[step.source_name], (
                    f"conditions changed for {step.source_name} "
                    f"under {options}"
                )

    def test_anchor_always_first_and_unique(self, mediator):
        for options in ALL_ABLATIONS:
            plan = optimizer_for(mediator, options).plan(
                subqueries_for(mediator, conditioned_query())
            )
            steps = plan.steps()
            assert steps[0].purpose == "anchor"
            assert all(step.purpose == "link" for step in steps[1:])


class TestPhysicalSurface:
    def test_stage_dag_shape(self, mediator):
        plan = optimizer_for(mediator).plan(
            subqueries_for(mediator, conditioned_query())
        )
        stages = plan.stages()
        # anchor + 2 links + reconcile + enrich + answer
        assert [node.kind for node in stages] == [
            "fetch", "fetch", "fetch", "reconcile", "enrich", "answer",
        ]
        edges = set(plan.edges())
        reconcile_id = stages[3].stage_id
        for fetch in stages[:3]:
            assert (fetch.stage_id, reconcile_id) in edges

    def test_semijoin_driver_edge(self, mediator):
        options = OptimizerOptions(enable_semijoin=True)
        plan = optimizer_for(mediator, options).plan(
            subqueries_for(mediator, selective_query())
        )
        driver_id = f"s{plan.driver_index + 1}"
        assert (driver_id, "s0") in plan.edges()

    def test_describe_tells_the_whole_story(self, mediator):
        plan = optimizer_for(mediator).plan(
            subqueries_for(mediator, conditioned_query())
        )
        text = plan.describe()
        assert "logical plan:" in text
        assert "optimizer rules:" in text
        assert "execution plan" in text
        assert "physical stage DAG:" in text

    def test_to_dict_round_trips_to_json(self, mediator):
        import json

        plan = optimizer_for(mediator).plan(
            subqueries_for(mediator, conditioned_query())
        )
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["logical"]["node"] == "Project"
        assert [r["rule"] for r in payload["rules"]] == list(RULE_NAMES)
        assert len(payload["steps"]) == 3


class TestDeprecatedAliases:
    def test_unknown_attribute_still_raises(self):
        import repro.mediator.optimizer as optimizer_module

        with pytest.raises(AttributeError):
            optimizer_module.NoSuchName
