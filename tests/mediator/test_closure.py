"""Tests for ontology-closure ('under') predicates."""

import pytest

from repro.mediator import GlobalQuery, LinkConstraint
from repro.mediator.decompose import Condition
from repro.questions import QuestionCatalog
from repro.util.errors import ConfigurationError


def term_with_descendants(corpus, minimum=2):
    for term in corpus.go.all_records():
        if term.is_root:
            continue
        if len(corpus.go.descendants(term.go_id)) >= minimum:
            return term.go_id
    pytest.skip("no mid-level term with descendants at this seed")


def expected_under(corpus, root_term):
    within = {root_term} | corpus.go.descendants(root_term)
    non_obsolete = {
        go_id
        for go_id in within
        if not corpus.go.get(go_id).obsolete
    }
    return {
        record.locus_id
        for record in corpus.locuslink.all_records()
        if set(record.go_ids) & non_obsolete
    }


class TestClosureQueries:
    def test_under_matches_descendant_closure(self, mediator, corpus):
        term = term_with_descendants(corpus)
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(
                        Condition("AnnotationID", "under", term),
                    ),
                ),
            ),
        )
        result = mediator.query(query, enrich_links=False)
        assert set(result.gene_ids()) == expected_under(corpus, term)

    def test_under_is_wider_than_equality(self, mediator, corpus):
        term = term_with_descendants(corpus)
        equality = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(Condition("AnnotationID", "=", term),),
                ),
            ),
        )
        closure = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(
                        Condition("AnnotationID", "under", term),
                    ),
                ),
            ),
        )
        narrow = set(mediator.query(equality, enrich_links=False).gene_ids())
        wide = set(mediator.query(closure, enrich_links=False).gene_ids())
        assert narrow <= wide

    def test_matched_ids_stay_within_closure(self, mediator, corpus):
        term = term_with_descendants(corpus)
        result = mediator.query(
            QuestionCatalog.genes_under_term(term).to_global_query(),
            enrich_links=False,
        )
        within = {term} | corpus.go.descendants(term)
        for gene in result.genes:
            matched = set(gene["_links"]["GO"])
            assert matched
            assert matched <= within

    def test_root_term_covers_namespace(self, mediator, corpus):
        # 'under molecular_function root' = any non-obsolete annotation
        # in that namespace.
        root = corpus.go.roots("molecular_function")[0].go_id
        result = mediator.query(
            QuestionCatalog.genes_under_term(root).to_global_query(),
            enrich_links=False,
        )
        assert set(result.gene_ids()) == expected_under(corpus, root)

    def test_under_on_anchor_rejected(self, mediator):
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(Condition("AnnotationID", "under", "GO:0000001"),),
        )
        with pytest.raises(ConfigurationError):
            mediator.plan(query)

    def test_under_on_non_ontology_source_rejected(self, mediator):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "OMIM",
                    "include",
                    via="DiseaseID",
                    conditions=(
                        Condition("DiseaseID", "under", 100100),
                    ),
                ),
            ),
        )
        with pytest.raises(ConfigurationError):
            mediator.plan(query)

    def test_closure_step_is_not_pruned(self, mediator, corpus):
        term = term_with_descendants(corpus)
        plan = mediator.plan(
            QuestionCatalog.genes_under_term(term).to_global_query()
        )
        assert not plan.link_steps[0].pruned
        assert plan.link_steps[0].closure == (("GoID", "under", term),)
