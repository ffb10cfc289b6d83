"""Tests for the four baseline integration architectures."""

import pytest

from repro.baselines import (
    DiscoveryLinkSystem,
    HypertextNavigationSystem,
    K2KleisliSystem,
    WarehouseSystem,
)
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.wrappers import default_wrappers


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=31,
        parameters=CorpusParameters(loci=80, go_terms=50, omim_entries=25),
    )


@pytest.fixture(scope="module")
def conflicted_corpus():
    return AnnotationCorpus.generate(
        seed=37,
        parameters=CorpusParameters(
            loci=200, go_terms=100, omim_entries=60, conflict_rate=0.4
        ),
    )


class TestHypertext:
    @pytest.fixture(scope="class")
    def system(self, corpus):
        return HypertextNavigationSystem(default_wrappers(corpus))

    def test_keyword_search(self, system, corpus):
        symbol = corpus.locuslink.all_records()[0].symbol
        hits = system.search("LocusLink", symbol)
        assert any(hit["Symbol"] == symbol for hit in hits)

    def test_search_is_per_source(self, system):
        from repro.util.errors import QueryError

        with pytest.raises(QueryError):
            system.search("Everything", "kinase")

    def test_follow_link(self, system, corpus):
        locus_id = corpus.locuslink.locus_ids()[0]
        record = system.follow_link(
            f"http://www.ncbi.nlm.nih.gov/LocusLink/LocRpt.cgi?l={locus_id}"
        )
        assert record["LocusID"] == locus_id

    def test_integrated_query_needs_many_user_actions(self, system, corpus):
        answer, effort = system.integrated_gene_disease_query()
        # Correct answer (clean corpus) but at manual cost: at least
        # one action per locus.
        assert answer == corpus.ground_truth.figure5b_expected()
        assert effort["user_actions"] >= corpus.locuslink.count()
        assert effort["automated"] is False


class TestWarehouse:
    @pytest.fixture()
    def system(self, corpus):
        warehouse = WarehouseSystem(default_wrappers(corpus))
        warehouse.etl()
        return warehouse

    def test_etl_loads_all_tables(self, system, corpus):
        counts = system.etl()
        assert counts["LocusLink"] == corpus.locuslink.count()
        assert counts["GO"] == corpus.go.count()
        assert counts["OMIM"] == corpus.omim.count()

    def test_queries_never_touch_sources(self, system, corpus):
        version_before = corpus.locuslink.version
        system.integrated_gene_disease_query()
        assert corpus.locuslink.version == version_before

    def test_correct_on_clean_corpus(self, system, corpus):
        answer, effort = system.integrated_gene_disease_query()
        assert answer == corpus.ground_truth.figure5b_expected()
        assert effort["stale"] is False

    def test_staleness_detection(self, system, corpus):
        from repro.sources.locuslink import LocusRecord

        assert not system.is_stale()
        corpus.locuslink.add(
            LocusRecord(
                locus_id=777777, organism="Homo sapiens", symbol="STALE1"
            )
        )
        try:
            assert system.is_stale()
        finally:
            corpus.locuslink.remove(777777)
        system.etl()
        assert not system.is_stale()

    def test_stale_warehouse_misses_new_data(self, system, corpus):
        from repro.sources.locuslink import LocusRecord

        new_locus = LocusRecord(
            locus_id=777778,
            organism="Homo sapiens",
            symbol="FRESH1",
            go_ids=[corpus.go.keys()[5]],
        )
        corpus.locuslink.add(new_locus)
        try:
            answer, _ = system.integrated_gene_disease_query()
            assert 777778 not in answer  # stale copy
            system.etl()
            answer, _ = system.integrated_gene_disease_query()
            assert 777778 in answer  # fresh after reload
        finally:
            corpus.locuslink.remove(777778)
            system.etl()

    def test_cleansing_repairs_case_conflicts(self, conflicted_corpus):
        warehouse = WarehouseSystem(default_wrappers(conflicted_corpus))
        warehouse.etl()
        answer, _ = warehouse.disease_association_query()
        naive = K2KleisliSystem(default_wrappers(conflicted_corpus))
        naive_answer, _ = naive.disease_association_query()
        truth = conflicted_corpus.ground_truth.loci_with_omim()
        assert len(answer & truth) > len(naive_answer & truth)

    def test_query_before_etl_rejected(self, corpus):
        from repro.util.errors import QueryError

        warehouse = WarehouseSystem(default_wrappers(corpus))
        with pytest.raises(QueryError):
            warehouse.integrated_gene_disease_query()

    def test_archival(self, system):
        system.archive_snapshot("release-1")
        system.archive_snapshot("release-2")
        assert system.archived_labels() == ["release-1", "release-2"]


class TestMultidatabase:
    def test_correct_on_clean_corpus(self, corpus):
        system = K2KleisliSystem(default_wrappers(corpus))
        answer, effort = system.integrated_gene_disease_query()
        assert answer == corpus.ground_truth.figure5b_expected()
        assert effort["reconciled"] is False

    def test_wrong_on_conflicted_corpus(self, conflicted_corpus):
        """No reconciliation: the conflicted corpus produces measurable
        errors against ground truth."""
        from repro.evaluation.metrics import answer_quality

        system = K2KleisliSystem(default_wrappers(conflicted_corpus))
        answer, _ = system.disease_association_query()
        quality = answer_quality(
            answer, conflicted_corpus.ground_truth.loci_with_omim()
        )
        assert quality["recall"] < 1.0
        assert quality["errors"] > 0

    def test_query_source_requires_local_labels(self, corpus):
        system = DiscoveryLinkSystem(default_wrappers(corpus))
        hits = system.query_source(
            "LocusLink", [("Organism", "=", "Homo sapiens")]
        )
        assert hits

    def test_flavours_share_behaviour_differ_in_traits(self, corpus):
        k2 = K2KleisliSystem(default_wrappers(corpus))
        dl = DiscoveryLinkSystem(default_wrappers(corpus))
        assert k2.query_language == "OQL"
        assert dl.query_language == "SQL"
        assert (
            k2.integrated_gene_disease_query()[0]
            == dl.integrated_gene_disease_query()[0]
        )


class TestTraitsConsistency:
    def test_reconciliation_traits(self, corpus):
        wrappers = default_wrappers(corpus)
        assert not K2KleisliSystem(wrappers).traits().reconciles_results
        assert WarehouseSystem(wrappers).traits().reconciles_results
        assert not HypertextNavigationSystem(
            wrappers
        ).traits().reconciles_results

    def test_archival_traits(self, corpus):
        wrappers = default_wrappers(corpus)
        assert WarehouseSystem(wrappers).traits().archival_functionality
        assert not K2KleisliSystem(wrappers).traits().archival_functionality
