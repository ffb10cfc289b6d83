"""Tests for the Annoda facade — the public API end to end."""

import pytest

from repro import Annoda
from repro.core import AnnodaConfig
from repro.mediator import OptimizerOptions
from repro.sources.corpus import CorpusParameters
from repro.wrappers import PubmedLikeWrapper


@pytest.fixture(scope="module")
def annoda():
    return Annoda.with_default_sources(
        seed=23,
        parameters=CorpusParameters(loci=120, go_terms=70, omim_entries=35),
    )


class TestConstruction:
    def test_top_level_import(self):
        import repro

        assert repro.Annoda is Annoda
        assert repro.__version__

    def test_default_sources(self, annoda):
        assert annoda.sources() == ["LocusLink", "GO", "OMIM"]
        assert annoda.corpus is not None

    def test_describe_sources(self, annoda):
        text = annoda.describe_sources()
        assert "LocusLink" in text and "GO" in text and "OMIM" in text

    def test_config_threads_through(self):
        config = AnnodaConfig(
            optimizer=OptimizerOptions(enable_pushdown=False)
        )
        annoda = Annoda.with_default_sources(
            seed=1,
            parameters=CorpusParameters(
                loci=20, go_terms=20, omim_entries=5
            ),
            config=config,
        )
        assert not annoda.mediator.optimizer_options.enable_pushdown


class TestAsk:
    def test_ask_with_text(self, annoda):
        result = annoda.ask(
            "Find a set of LocusLink genes, which are annotated with some "
            "GO functions, but not associated with some OMIM disease"
        )
        assert set(result.gene_ids()) == (
            annoda.corpus.ground_truth.figure5b_expected()
        )

    def test_ask_with_question_object(self, annoda):
        result = annoda.ask(annoda.catalog.figure5b())
        assert set(result.gene_ids()) == (
            annoda.corpus.ground_truth.figure5b_expected()
        )

    def test_ask_with_global_query(self, annoda):
        query = annoda.catalog.figure5b().to_global_query()
        result = annoda.ask(query)
        assert set(result.gene_ids()) == (
            annoda.corpus.ground_truth.figure5b_expected()
        )

    def test_all_three_paths_agree(self, annoda):
        text_result = annoda.ask(
            "find genes associated with some OMIM disease"
        )
        question_result = annoda.ask(annoda.catalog.disease_genes())
        assert set(text_result.gene_ids()) == set(
            question_result.gene_ids()
        )

    def test_explain(self, annoda):
        text = annoda.explain(annoda.catalog.figure5b())
        assert "execution plan" in text


class TestLorel:
    def test_raw_lorel_against_gml(self, annoda):
        result = annoda.lorel(
            'select X from ANNODA-GML.Source X where X.Name = "GO"'
        )
        assert len(result) == 1

    def test_gml_accessor(self, annoda):
        graph, root = annoda.gml()
        assert len(root.refs_with_label("Source")) == 3


class TestEndToEndNavigation:
    def test_query_then_navigate(self, annoda):
        result = annoda.ask(annoda.catalog.figure5b())
        gene = result.graph.children(result.root, "Gene")[0]
        links = annoda.navigator.links_of(result.graph, gene)
        go_link = next(l for l in links if l.target_source == "GO")
        view = annoda.navigate(go_link.url)
        rendered = annoda.render_object_view(view)
        assert view.target_id in rendered

    def test_render_pipeline(self, annoda):
        question = annoda.catalog.figure5b()
        result = annoda.ask(question)
        assert "ANNODA query interface" in annoda.render_query_form(
            question
        )
        assert "integrated view" in annoda.render_integrated_view(
            result, limit=5
        )
        assert "<table" in annoda.render_integrated_view_html(
            result, limit=5
        )


class TestSourceLifecycle:
    def test_plug_in_pubmed_and_ask(self, annoda):
        citations = annoda.corpus.make_citation_store(count=40)
        annoda.add_source(PubmedLikeWrapper(citations))
        try:
            result = annoda.ask("genes cited in some PubMed article")
            expected = {
                locus_id
                for citation in citations.all_records()
                for locus_id in citation.locus_ids
            }
            assert set(result.gene_ids()) == expected
        finally:
            annoda.remove_source("PubMed")

    def test_remove_restores_three_sources(self, annoda):
        assert annoda.sources() == ["LocusLink", "GO", "OMIM"]
