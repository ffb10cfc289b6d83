"""Tests for plan execution: the integrated federated answer."""

import pytest

from repro.mediator import (
    GlobalQuery,
    LinkConstraint,
    Mediator,
    OptimizerOptions,
    ReconciliationPolicy,
    Reconciler,
)
from repro.mediator.decompose import Condition
from repro.wrappers import default_wrappers


def figure5b_query():
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint("GO", "include", via="AnnotationID"),
            LinkConstraint(
                "OMIM", "exclude", via="DiseaseID", symbol_join=True
            ),
        ),
    )


class TestFigure5bQuery:
    def test_result_matches_ground_truth(self, mediator, corpus):
        result = mediator.query(figure5b_query())
        assert set(result.gene_ids()) == (
            corpus.ground_truth.figure5b_expected()
        )

    def test_result_is_nonempty(self, mediator):
        result = mediator.query(figure5b_query())
        assert len(result) > 0

    def test_integrated_view_structure(self, mediator):
        result = mediator.query(figure5b_query())
        graph = result.graph
        genes = graph.children(result.root, "Gene")
        assert len(genes) == len(result)
        first = genes[0]
        assert graph.child_value(first, "GeneID") is not None
        assert graph.child_value(first, "GeneSymbol") is not None
        # Included link details materialize as Annotation children.
        annotations = graph.children(first, "Annotation")
        assert annotations
        assert graph.child_value(
            annotations[0], "AnnotationID"
        ).startswith("GO:")
        # Excluded OMIM: no Disease children.
        assert graph.children(first, "Disease") == []

    def test_annotation_enrichment_carries_term_details(self, mediator):
        result = mediator.query(figure5b_query())
        graph = result.graph
        gene = graph.children(result.root, "Gene")[0]
        annotation = graph.children(gene, "Annotation")[0]
        assert graph.child_value(annotation, "Title") is not None
        assert graph.child_value(annotation, "Aspect") in (
            "molecular_function",
            "biological_process",
            "cellular_component",
        )

    def test_web_links_attached(self, mediator):
        result = mediator.query(figure5b_query())
        graph = result.graph
        gene = graph.children(result.root, "Gene")[0]
        links = graph.children(gene, "Links")[0]
        self_links = graph.children(links, "Self")
        assert self_links and "LocRpt.cgi" in self_links[0].value

    def test_view_graph_is_valid(self, mediator):
        result = mediator.query(figure5b_query())
        assert result.graph.validate() == []


class TestConditions:
    def test_anchor_condition_filters(self, mediator, corpus):
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(Condition("Species", "=", "Mus musculus"),),
        )
        result = mediator.query(query)
        expected = [
            record.locus_id
            for record in corpus.locuslink.all_records()
            if record.organism == "Mus musculus"
        ]
        assert sorted(result.gene_ids()) == expected

    def test_link_condition_narrows_annotations(self, mediator, corpus):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(
                        Condition("Aspect", "=", "molecular_function"),
                    ),
                ),
            ),
        )
        result = mediator.query(query)
        for gene in result.genes:
            matched = gene["_links"]["GO"]
            assert matched
            for go_id in matched:
                assert (
                    corpus.go.get(go_id).namespace == "molecular_function"
                )

    def test_residual_condition_filters(self, mediator, corpus):
        # Description '=' is not native at LocusLink, so it runs at the
        # mediator; results must match a manual scan.
        sample = corpus.locuslink.all_records()[0]
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(
                Condition("Definition", "=", sample.description),
            ),
        )
        result = mediator.query(query)
        expected = [
            record.locus_id
            for record in corpus.locuslink.all_records()
            if record.description == sample.description
        ]
        assert sorted(result.gene_ids()) == expected
        assert result.report.counters["residual_evaluations"] > 0

    def test_projection(self, mediator):
        query = GlobalQuery(
            anchor_source="LocusLink",
            select=("GeneSymbol",),
        )
        result = mediator.query(query)
        gene = result.genes[0]
        assert set(gene) == {"GeneID", "GeneSymbol", "_links"}


class TestOptimizerEquivalence:
    """All optimizer configurations must return identical answers."""

    @pytest.mark.parametrize(
        "options",
        [
            OptimizerOptions(),
            OptimizerOptions(enable_pushdown=False),
            OptimizerOptions(enable_pruning=False),
            OptimizerOptions(enable_ordering=False),
            OptimizerOptions(
                enable_pushdown=False,
                enable_pruning=False,
                enable_ordering=False,
            ),
        ],
    )
    def test_same_answer_any_options(self, corpus, options):
        mediator = Mediator(optimizer_options=options)
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)
        result = mediator.query(figure5b_query())
        assert set(result.gene_ids()) == (
            corpus.ground_truth.figure5b_expected()
        )

    def test_optimized_plan_fetches_fewer_rows(self, corpus):
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(Condition("Species", "=", "Homo sapiens"),),
            links=(
                LinkConstraint("GO", "include", via="AnnotationID"),
            ),
        )
        optimized = Mediator()
        unoptimized = Mediator(
            optimizer_options=OptimizerOptions(
                enable_pushdown=False, enable_pruning=False
            )
        )
        for target in (optimized, unoptimized):
            for wrapper in default_wrappers(corpus):
                target.register_wrapper(wrapper)
        fast = optimized.query(query, enrich_links=False)
        slow = unoptimized.query(query, enrich_links=False)
        assert set(fast.gene_ids()) == set(slow.gene_ids())
        assert (
            fast.report.counters["rows"]
            < slow.report.counters["rows"]
        )


class TestReconciliationInExecution:
    def test_conflicted_corpus_recall(self, conflicted_corpus):
        """Reconciliation recovers symbol-mangled OMIM associations that
        a naive join misses."""
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "OMIM", "include", via="DiseaseID", symbol_join=True
                ),
            ),
        )
        reconciled = Mediator()
        naive = Mediator(
            reconciler=Reconciler(ReconciliationPolicy.naive())
        )
        for target in (reconciled, naive):
            for wrapper in default_wrappers(conflicted_corpus):
                target.register_wrapper(wrapper)
        truth = conflicted_corpus.ground_truth.loci_with_omim()

        good = set(reconciled.query(query, enrich_links=False).gene_ids())
        bad = set(naive.query(query, enrich_links=False).gene_ids())
        # Reconciled recall strictly dominates naive recall.
        assert good & truth > bad & truth or (
            good >= bad and good & truth == truth
        )
        assert good >= bad

    def test_obsolete_annotations_dropped(self, conflicted_mediator,
                                          conflicted_corpus):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(LinkConstraint("GO", "include", via="AnnotationID"),),
        )
        result = conflicted_mediator.query(query, enrich_links=False)
        obsolete = {
            term.go_id
            for term in conflicted_corpus.go.all_records()
            if term.obsolete
        }
        for gene in result.genes:
            assert not set(gene["_links"]["GO"]) & obsolete
        assert result.reconciliation.count("obsolete_annotation") > 0

    def test_dangling_references_reported(self, conflicted_mediator):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint("OMIM", "include", via="DiseaseID"),
            ),
        )
        result = conflicted_mediator.query(query, enrich_links=False)
        assert result.reconciliation.count("dangling_disease") > 0


class TestStats:
    def test_stats_populated(self, mediator):
        result = mediator.query(figure5b_query())
        assert result.report.counters["anchors_considered"] > 0
        assert result.report.counters["anchors_returned"] == len(result)
        assert result.report.wall_seconds > 0
        assert "LocusLink" in result.report.rows_fetched

    def test_gene_lookup(self, mediator):
        result = mediator.query(figure5b_query())
        gene_id = result.gene_ids()[0]
        assert result.gene(gene_id)["GeneID"] == gene_id
        from repro.util.errors import IntegrationError

        with pytest.raises(IntegrationError):
            result.gene(-1)
