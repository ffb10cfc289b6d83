"""End-to-end integration: question -> mediator -> answer -> navigation,
verified against corpus ground truth across seeds and conflict rates."""

import pytest

from repro import Annoda
from repro.mediator import GlobalQuery, LinkConstraint
from repro.mediator.decompose import Condition
from repro.sources.corpus import CorpusParameters


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
def test_figure5b_exact_across_seeds(seed):
    annoda = Annoda.with_default_sources(
        seed=seed,
        parameters=CorpusParameters(loci=120, go_terms=80, omim_entries=40),
    )
    result = annoda.ask(annoda.catalog.figure5b(), enrich_links=False)
    assert set(result.gene_ids()) == (
        annoda.corpus.ground_truth.figure5b_expected()
    )


@pytest.mark.parametrize("conflict_rate", [0.2, 0.5])
def test_figure5b_exact_under_conflicts(conflict_rate):
    """Reconciliation keeps the flagship answer exact even when the
    sources disagree on symbols and reference stale/dangling entries."""
    annoda = Annoda.with_default_sources(
        seed=4,
        parameters=CorpusParameters(
            loci=200,
            go_terms=120,
            omim_entries=60,
            conflict_rate=conflict_rate,
        ),
    )
    result = annoda.ask(annoda.catalog.figure5b(), enrich_links=False)
    assert set(result.gene_ids()) == (
        annoda.corpus.ground_truth.figure5b_expected()
    )
    assert result.reconciliation.count() > 0


class TestCompoundQueries:
    """Mediator answers checked against direct store computation."""

    @pytest.fixture(scope="class")
    def annoda(self):
        return Annoda.with_default_sources(
            seed=6,
            parameters=CorpusParameters(
                loci=180, go_terms=100, omim_entries=50
            ),
        )

    def test_aspect_filtered_annotation(self, annoda):
        corpus = annoda.corpus
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(Condition("Species", "=", "Homo sapiens"),),
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(
                        Condition("Aspect", "=", "biological_process"),
                    ),
                ),
            ),
        )
        result = annoda.ask(query, enrich_links=False)
        expected = set()
        for record in corpus.locuslink.all_records():
            if record.organism != "Homo sapiens":
                continue
            if any(
                corpus.go.get(go_id) is not None
                and corpus.go.get(go_id).namespace == "biological_process"
                and not corpus.go.get(go_id).obsolete
                for go_id in record.go_ids
            ):
                expected.add(record.locus_id)
        assert set(result.gene_ids()) == expected

    def test_double_exclusion(self, annoda):
        corpus = annoda.corpus
        result = annoda.ask(
            annoda.catalog.unannotated_genes(), enrich_links=False
        )
        truth = corpus.ground_truth
        expected = {
            record.locus_id
            for record in corpus.locuslink.all_records()
            if not truth.go_by_locus[record.locus_id]
            and not truth.omim_by_locus[record.locus_id]
        }
        assert set(result.gene_ids()) == expected

    def test_keyword_narrowing(self, annoda):
        corpus = annoda.corpus
        question = annoda.catalog.genes_by_annotation_keyword("kinase")
        result = annoda.ask(question, enrich_links=False)
        kinase_terms = {
            term.go_id
            for term in corpus.go.all_records()
            if "kinase" in term.name.lower() and not term.obsolete
        }
        expected = {
            record.locus_id
            for record in corpus.locuslink.all_records()
            if set(record.go_ids) & kinase_terms
        }
        assert set(result.gene_ids()) == expected


class TestLorelMediatorConsistency:
    def test_gml_reflects_registered_sources(self):
        annoda = Annoda.with_default_sources(
            seed=9,
            parameters=CorpusParameters(
                loci=50, go_terms=30, omim_entries=15
            ),
        )
        result = annoda.lorel("select X.Name from ANNODA-GML.Source X")
        assert sorted(result.values()) == sorted(annoda.sources())

    def test_entry_counts_match_sources(self):
        annoda = Annoda.with_default_sources(
            seed=9,
            parameters=CorpusParameters(
                loci=50, go_terms=30, omim_entries=15
            ),
        )
        result = annoda.lorel(
            "select X.Content.EntryCount from ANNODA-GML.Source X"
        )
        assert sorted(result.values()) == sorted(
            [50, 30, 15]
        )


class TestDeterminism:
    def test_identical_runs_render_identically(self):
        def render_once():
            annoda = Annoda.with_default_sources(
                seed=12,
                parameters=CorpusParameters(
                    loci=80, go_terms=50, omim_entries=25
                ),
            )
            result = annoda.ask(annoda.catalog.figure5b())
            return annoda.render_integrated_view(result)

        assert render_once() == render_once()


class TestNavigationFromAnswers:
    def test_every_answer_link_resolves(self):
        """No dangling web-links in integrated answers (reconciliation
        dropped the dangling references before rendering)."""
        annoda = Annoda.with_default_sources(
            seed=14,
            parameters=CorpusParameters(
                loci=100, go_terms=60, omim_entries=30, conflict_rate=0.4
            ),
        )
        result = annoda.ask(
            "find genes associated with some OMIM disease"
        )
        genes = result.graph.children(result.root, "Gene")[:10]
        for gene in genes:
            for link in annoda.navigator.links_of(result.graph, gene):
                if link.target_source == "OMIM":
                    view = annoda.navigator.follow(link)
                    assert view.target_id == link.target_id
