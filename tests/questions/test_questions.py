"""Tests for the biological-question model, builder, parser, catalog."""

import pytest

from repro.mediator.decompose import Condition
from repro.questions import (
    BiologicalQuestion,
    QuestionBuilder,
    QuestionCatalog,
    QuestionParser,
)
from repro.service.types import CATALOG_PARAMS
from repro.util.errors import QueryError

#: A value for every catalog parameter (see ``CATALOG_PARAMS``).
PARAM_VALUES = {
    "organism": "Homo sapiens",
    "keyword": "binding",
    "aspect": "molecular_function",
    "go_id": "GO:0000002",
}


class TestBuilder:
    def test_figure5b_shape(self):
        question = (
            QuestionBuilder("genes with GO but no OMIM")
            .include("GO")
            .exclude("OMIM")
            .build()
        )
        go_link, omim_link = question.links
        assert go_link.mode == "include"
        assert go_link.via == "AnnotationID"
        assert not go_link.symbol_join
        assert omim_link.mode == "exclude"
        assert omim_link.via == "DiseaseID"
        assert omim_link.symbol_join  # OMIM joins through symbols

    def test_anchor_and_conditions(self):
        question = (
            QuestionBuilder("human kinase genes")
            .anchor("LocusLink")
            .where("Species", "=", "Homo sapiens")
            .include("GO")
            .where_linked("Title", "contains", "kinase")
            .build()
        )
        assert question.anchor_conditions[0].attribute == "Species"
        assert question.links[0].conditions[0].value == "kinase"

    def test_where_linked_requires_link(self):
        with pytest.raises(QueryError):
            QuestionBuilder("bad").where_linked("Title", "contains", "x")

    def test_unknown_source_needs_via(self):
        with pytest.raises(QueryError):
            QuestionBuilder("q").include("Ensembl")

    def test_explicit_via(self):
        question = (
            QuestionBuilder("q").include("Ensembl", via="GeneID").build()
        )
        assert question.links[0].via == "GeneID"

    def test_select(self):
        question = (
            QuestionBuilder("q").select("GeneSymbol", "Species").build()
        )
        assert question.select == ("GeneSymbol", "Species")


class TestModel:
    def test_combination_must_be_and(self):
        with pytest.raises(QueryError):
            BiologicalQuestion(text="q", combination="or")

    def test_to_global_query(self):
        question = QuestionCatalog.figure5b()
        query = question.to_global_query()
        assert query.anchor_source == "LocusLink"
        assert len(query.links) == 2

    def test_include_exclude_views(self):
        question = QuestionCatalog.figure5b()
        assert [l.source_name for l in question.include_links()] == ["GO"]
        assert [l.source_name for l in question.exclude_links()] == ["OMIM"]

    def test_to_lorel_mentions_constraints(self):
        text = QuestionCatalog.figure5b().to_lorel()
        assert text.startswith("select G from ANNODA-GML")
        assert "exists G.AnnotationID" in text
        assert "not (exists G.DiseaseID)" in text

    def test_condition_descriptions(self):
        question = QuestionCatalog.genes_by_annotation_keyword(
            "kinase", aspect="molecular_function"
        )
        lines = question.condition_descriptions()
        assert any("kinase" in line for line in lines)
        assert any("molecular_function" in line for line in lines)


class TestParser:
    def test_paper_figure5b_sentence(self):
        question = QuestionParser().parse(
            "Find a set of LocusLink genes, which are annotated with some "
            "GO functions, but not associated with some OMIM disease"
        )
        modes = {
            link.source_name: link.mode for link in question.links
        }
        assert modes == {"GO": "include", "OMIM": "exclude"}

    def test_organism_qualifier(self):
        question = QuestionParser().parse(
            "find human genes annotated with some GO function"
        )
        assert question.anchor_conditions[0].value == "Homo sapiens"

    def test_mouse_qualifier(self):
        question = QuestionParser().parse(
            "mouse genes associated with some disease"
        )
        assert question.anchor_conditions[0].value == "Mus musculus"
        assert question.links[0].source_name == "OMIM"

    def test_symbol_condition(self):
        question = QuestionParser().parse(
            "find genes with symbol FOSB annotated with some GO term"
        )
        assert any(
            condition.attribute == "GeneSymbol"
            and condition.value == "FOSB"
            for condition in question.anchor_conditions
        )

    def test_containing_keyword(self):
        question = QuestionParser().parse(
            "genes annotated with GO functions containing 'kinase'"
        )
        link = question.links[0]
        assert link.conditions[0].attribute == "Title"
        assert link.conditions[0].value == "kinase"

    def test_pubmed_phrase(self):
        question = QuestionParser().parse(
            "genes cited in some PubMed article"
        )
        assert question.links[0].source_name == "PubMed"

    def test_not_annotated(self):
        question = QuestionParser().parse(
            "genes not annotated with any GO function"
        )
        assert question.links[0].mode == "exclude"

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            QuestionParser().parse("   ")

    def test_non_gene_question_rejected(self):
        with pytest.raises(QueryError):
            QuestionParser().parse("find proteins that fold quickly")

    def test_unconstrained_question_rejected(self):
        with pytest.raises(QueryError) as excinfo:
            QuestionParser().parse("find all genes")
        assert "supported phrases" in str(excinfo.value)

    def test_specific_term(self):
        question = QuestionParser().parse(
            "find genes annotated with the GO term GO:0000123"
        )
        assert len(question.links) == 1
        link = question.links[0]
        assert link.source_name == "GO"
        assert link.conditions == (
            Condition("AnnotationID", "=", "GO:0000123"),
        )

    def test_specific_term_with_closure(self):
        question = QuestionParser().parse(
            "genes annotated with term GO:0000042 or below"
        )
        link = question.links[0]
        assert link.conditions[0].op == "under"
        assert link.conditions[0].value == "GO:0000042"

    def test_specific_term_negated(self):
        question = QuestionParser().parse(
            "genes not annotated with term GO:0000042"
        )
        assert question.links[0].mode == "exclude"

    def test_specific_term_combines_with_other_sources(self):
        question = QuestionParser().parse(
            "human genes annotated with term GO:0000042 or below, "
            "but not associated with some OMIM disease"
        )
        sources = {link.source_name: link.mode for link in question.links}
        assert sources == {"GO": "include", "OMIM": "exclude"}
        assert question.anchor_conditions[0].value == "Homo sapiens"


class TestCatalog:
    def test_all_names_resolve(self):
        catalog = QuestionCatalog()
        assert catalog.figure5b().links
        assert catalog.disease_genes("Homo sapiens").anchor_conditions
        assert len(catalog.unannotated_genes().exclude_links()) == 2
        assert catalog.cited_disease_genes().links[1].source_name == "PubMed"
        names = QuestionCatalog.all_names()
        factories = {
            name
            for name, member in vars(QuestionCatalog).items()
            if isinstance(member, staticmethod)
        }
        assert sorted(names) == sorted(factories)
        assert set(CATALOG_PARAMS) <= set(names)
        for name in names:
            params = {
                param: PARAM_VALUES[param]
                for param in CATALOG_PARAMS.get(name, ())
            }
            question = getattr(catalog, name)(**params)
            assert isinstance(question, BiologicalQuestion)
            assert question.links, name
