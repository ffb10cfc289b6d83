"""Tests for the multi-source corpus builder and conflict injection."""

import pytest

from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=7,
        parameters=CorpusParameters(loci=120, go_terms=80, omim_entries=40),
    )


@pytest.fixture(scope="module")
def conflicted_corpus():
    return AnnotationCorpus.generate(
        seed=11,
        parameters=CorpusParameters(
            loci=200, go_terms=120, omim_entries=60, conflict_rate=0.4
        ),
    )


class TestParameters:
    def test_rate_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            CorpusParameters(go_annotation_rate=1.5)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ConfigurationError):
            CorpusParameters(go_terms=2)


class TestConsistency:
    def test_sizes(self, corpus):
        assert corpus.locuslink.count() == 120
        assert corpus.go.count() == 80
        assert corpus.omim.count() == 40

    def test_deterministic(self):
        parameters = CorpusParameters(loci=30, go_terms=20, omim_entries=10)
        a = AnnotationCorpus.generate(seed=5, parameters=parameters)
        b = AnnotationCorpus.generate(seed=5, parameters=parameters)
        assert a.locuslink.dump() == b.locuslink.dump()
        assert a.go.dump() == b.go.dump()
        assert a.omim.dump() == b.omim.dump()

    def test_go_links_resolve(self, corpus):
        for record in corpus.locuslink.all_records():
            for go_id in record.go_ids:
                assert corpus.go.get(go_id) is not None

    def test_omim_links_are_bidirectional(self, corpus):
        for record in corpus.locuslink.all_records():
            for mim in record.omim_ids:
                entry = corpus.omim.get(mim)
                assert entry is not None
                assert record.symbol in entry.gene_symbols

    def test_linked_entries_retitled(self, corpus):
        for entry in corpus.omim.all_records():
            if entry.gene_symbols:
                assert not entry.title.startswith("PHENOTYPE ENTRY")

    def test_ontology_valid(self, corpus):
        assert corpus.go.validate() == []


class TestGroundTruth:
    def test_truth_matches_stores_without_conflicts(self, corpus):
        truth = corpus.ground_truth
        for record in corpus.locuslink.all_records():
            assert set(record.go_ids) == truth.go_by_locus[record.locus_id]
            # Locus-side MIM references never exceed the truth; the gap
            # is the omim-only associations recorded via symbols.
            assert set(record.omim_ids) <= truth.omim_by_locus[
                record.locus_id
            ]

    def test_omim_only_associations_exist(self, corpus):
        """Some associations live only on the OMIM side (via symbol)."""
        truth = corpus.ground_truth
        omim_only = [
            (record.locus_id, mim)
            for record in corpus.locuslink.all_records()
            for mim in truth.omim_by_locus[record.locus_id]
            if mim not in record.omim_ids
        ]
        assert omim_only
        for locus_id, mim in omim_only:
            entry = corpus.omim.get(mim)
            record = corpus.locuslink.get(locus_id)
            assert record.symbol in entry.gene_symbols

    def test_figure5b_expected_set(self, corpus):
        expected = corpus.ground_truth.figure5b_expected()
        assert expected  # the flagship query has answers at this scale
        with_go = corpus.ground_truth.loci_with_go()
        with_omim = corpus.ground_truth.loci_with_omim()
        assert expected == with_go - with_omim

    def test_no_conflicts_by_default(self, corpus):
        assert corpus.ground_truth.conflicts == []


class TestConflictInjection:
    def test_conflicts_recorded(self, conflicted_corpus):
        kinds = {c.kind for c in conflicted_corpus.ground_truth.conflicts}
        assert len(conflicted_corpus.ground_truth.conflicts) >= 10
        # At this rate and scale all four kinds should materialize.
        assert kinds == {
            "symbol_case",
            "symbol_alias",
            "stale_go",
            "dangling_omim",
        }

    def test_symbol_conflicts_break_naive_join(self, conflicted_corpus):
        truth = conflicted_corpus.ground_truth
        broken = [
            c
            for c in truth.conflicts
            if c.kind in ("symbol_case", "symbol_alias")
        ]
        assert broken
        for conflict in broken:
            record = conflicted_corpus.locuslink.get(conflict.locus_id)
            # The official symbol no longer appears in at least one
            # truly associated OMIM entry.
            misses = [
                mim
                for mim in truth.omim_by_locus[conflict.locus_id]
                if conflicted_corpus.omim.get(mim) is not None
                and record.symbol
                not in conflicted_corpus.omim.get(mim).gene_symbols
            ]
            assert misses

    def test_ground_truth_unchanged_by_conflicts(self, conflicted_corpus):
        # Conflicts mangle spellings, never the intended associations.
        truth = conflicted_corpus.ground_truth
        for conflict in truth.conflicts:
            if conflict.kind in ("symbol_case", "symbol_alias"):
                assert truth.omim_by_locus[conflict.locus_id]

    def test_dangling_omim_points_nowhere(self, conflicted_corpus):
        for conflict in conflicted_corpus.ground_truth.conflicts:
            if conflict.kind == "dangling_omim":
                record = conflicted_corpus.locuslink.get(conflict.locus_id)
                dangling = [
                    mim
                    for mim in record.omim_ids
                    if conflicted_corpus.omim.get(mim) is None
                ]
                assert dangling

    def test_stale_go_is_obsolete(self, conflicted_corpus):
        for conflict in conflicted_corpus.ground_truth.conflicts:
            if conflict.kind == "stale_go":
                record = conflicted_corpus.locuslink.get(conflict.locus_id)
                assert any(
                    conflicted_corpus.go.get(go_id) is not None
                    and conflicted_corpus.go.get(go_id).obsolete
                    for go_id in record.go_ids
                )


class TestExtras:
    def test_citation_store(self, corpus):
        citations = corpus.make_citation_store(count=50)
        assert citations.count() == 50
        pool = set(corpus.locuslink.locus_ids())
        for record in citations.all_citations():
            assert set(record.locus_ids) <= pool

    def test_citation_pmids_bump_the_locuslink_version(self):
        """The PMIDs a citation store wires into LocusLink go through
        the store's ``remove``/``add``: the version moves, and a warm
        ``PubmedIDs`` index agrees with a scan afterwards."""
        corpus = AnnotationCorpus.generate(
            seed=23, parameters=CorpusParameters(loci=120)
        )
        store = corpus.locuslink
        before = store.version
        store.native_query(
            [NativeCondition("PubmedIDs", "=", 1)], use_index=True
        )  # warm the index at the old version
        citations = corpus.make_citation_store(40)
        assert store.version > before
        cited = 0
        for citation in citations.all_citations():
            condition = [NativeCondition("PubmedIDs", "=", citation.pmid)]
            indexed = store.native_query(condition, use_index=True)
            scanned = store.native_query(condition, use_index=False)
            assert [record["LocusID"] for record in indexed] == sorted(
                citation.locus_ids
            )
            assert indexed == scanned
            cited += len(indexed)
        assert cited > 0

    def test_sources_ordering(self, corpus):
        assert [source.name for source in corpus.sources()] == [
            "LocusLink",
            "GO",
            "OMIM",
        ]

    def test_describe(self, corpus):
        assert "120 loci" in corpus.describe()
