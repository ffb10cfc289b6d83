"""Tests for GO term-enrichment analysis."""

import pytest
from scipy.stats import hypergeom

from repro.analysis import EnrichmentAnalyzer
from repro.analysis.enrichment import _benjamini_hochberg
from repro.core import Annoda
from repro.sources.corpus import CorpusParameters
from repro.util.errors import QueryError


@pytest.fixture(scope="module")
def annoda():
    return Annoda.with_default_sources(
        seed=83,
        parameters=CorpusParameters(
            loci=200, go_terms=100, omim_entries=40
        ),
    )


@pytest.fixture(scope="module")
def analyzer(annoda):
    return EnrichmentAnalyzer(annoda)


class TestAnnotations:
    def test_propagation_adds_ancestors(self, analyzer, annoda):
        direct = analyzer.annotations(propagate=False)
        propagated = analyzer.annotations(propagate=True)
        grew = 0
        for gene, terms in direct.items():
            assert terms <= propagated[gene]
            if terms < propagated[gene]:
                grew += 1
            for term in terms:
                assert propagated[gene] >= annoda.corpus.go.ancestors(
                    term
                ) | {term} <= propagated[gene]
        assert grew > 0

    def test_obsolete_terms_dropped(self, analyzer, annoda):
        obsolete = {
            term.go_id
            for term in annoda.corpus.go.all_records()
            if term.obsolete
        }
        for terms in analyzer.annotations(propagate=False).values():
            assert not terms & obsolete


class TestEnrichment:
    def test_planted_term_is_top_hit(self, analyzer, annoda):
        """A study set built from one term's annotated genes must rank
        that term (or an ancestor covering it) first."""
        corpus = annoda.corpus
        by_term = {}
        for record in corpus.locuslink.all_records():
            for go_id in record.go_ids:
                term = corpus.go.get(go_id)
                if term is not None and not term.obsolete:
                    by_term.setdefault(go_id, set()).add(record.locus_id)
        target, genes = max(by_term.items(), key=lambda kv: len(kv[1]))
        assert len(genes) >= 3
        results = analyzer.go_enrichment(genes, min_study_count=2)
        top_ids = {result.go_id for result in results[:3]}
        closure = {target} | corpus.go.ancestors(target)
        assert top_ids & closure
        best = results[0]
        assert best.p_value < 0.05
        assert best.fold_enrichment > 1.0

    def test_p_value_matches_scipy_directly(self, analyzer):
        per_gene = analyzer.annotations()
        population = set(per_gene)
        study = set(list(sorted(population))[:30])
        results = analyzer.go_enrichment(study, min_study_count=2)
        result = results[0]
        expected = float(
            hypergeom.sf(
                result.study_count - 1,
                len(population),
                result.population_count,
                len(study),
            )
        )
        assert result.p_value == pytest.approx(expected)

    def test_whole_population_study_is_unenriched(self, analyzer):
        per_gene = analyzer.annotations()
        population = set(per_gene)
        results = analyzer.go_enrichment(population, min_study_count=2)
        for result in results:
            assert result.study_count == result.population_count
            assert result.p_value == pytest.approx(1.0)
            assert result.fold_enrichment == pytest.approx(1.0)

    def test_results_sorted_by_p(self, analyzer):
        per_gene = analyzer.annotations()
        study = set(list(sorted(per_gene))[:25])
        results = analyzer.go_enrichment(study)
        p_values = [result.p_value for result in results]
        assert p_values == sorted(p_values)

    def test_enrich_result_convenience(self, analyzer, annoda):
        result = annoda.ask(
            "find genes associated with some OMIM disease",
            enrich_links=False,
        )
        enriched = analyzer.enrich_result(result)
        assert all(r.study_size == len(result) for r in enriched)

    def test_render(self, analyzer):
        per_gene = analyzer.annotations()
        study = set(list(sorted(per_gene))[:25])
        line = analyzer.go_enrichment(study)[0].render()
        assert "p=" in line and "fold=" in line


class TestValidation:
    def test_unknown_study_gene_rejected(self, analyzer):
        with pytest.raises(QueryError):
            analyzer.go_enrichment({999999999})

    def test_empty_study_rejected(self, analyzer):
        with pytest.raises(QueryError):
            analyzer.go_enrichment(set())

    def test_study_outside_population_rejected(self, analyzer):
        per_gene = analyzer.annotations()
        genes = sorted(per_gene)
        with pytest.raises(QueryError):
            analyzer.go_enrichment(
                {genes[0]}, population_genes={genes[1]}
            )

    def test_requires_go_source(self):
        annoda = Annoda.with_default_sources(
            seed=1,
            parameters=CorpusParameters(
                loci=20, go_terms=20, omim_entries=5
            ),
        )
        annoda.remove_source("GO")
        with pytest.raises(QueryError):
            EnrichmentAnalyzer(annoda)


class TestBenjaminiHochberg:
    def test_empty(self):
        assert _benjamini_hochberg([]) == []

    def test_single_value_unchanged(self):
        assert _benjamini_hochberg([0.02]) == [0.02]

    def test_known_example(self):
        # Classic worked example: p = .01, .02, .03, .04 with m=4.
        adjusted = _benjamini_hochberg([0.01, 0.04, 0.03, 0.02])
        assert adjusted[0] == pytest.approx(0.04)
        assert adjusted[1] == pytest.approx(0.04)
        assert adjusted[2] == pytest.approx(0.04)
        assert adjusted[3] == pytest.approx(0.04)

    def test_monotone_and_bounded(self):
        p_values = [0.001, 0.5, 0.04, 0.9, 0.2]
        adjusted = _benjamini_hochberg(p_values)
        assert all(0.0 <= q <= 1.0 for q in adjusted)
        # q >= p always.
        for p, q in zip(p_values, adjusted):
            assert q >= p - 1e-12
