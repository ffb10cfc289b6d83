"""Tests for the mediator's version-keyed cache: whole answers, and the
fetch-path entries (enrichment indexes, symbol indexes) that ride on
the same invalidation scheme."""

import pytest

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.decompose import Condition
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition
from repro.sources.locuslink import LocusRecord
from repro.sources.omim import OmimRecord
from repro.wrappers import default_wrappers


def entries(mediator, kind):
    """How many ``kind`` entries the mediator's cache holds."""
    return mediator.artifacts.stats()[kind]["entries"]


def disease_query():
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(LinkConstraint("OMIM", "include", via="DiseaseID"),),
    )


@pytest.fixture()
def cached_mediator(corpus):
    mediator = Mediator()
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    return mediator


class TestCacheHits:
    def test_repeat_query_returns_cached_object(self, cached_mediator):
        first = cached_mediator.query(disease_query(), enrich_links=False)
        second = cached_mediator.query(disease_query(), enrich_links=False)
        assert second is first

    def test_different_query_misses(self, cached_mediator):
        first = cached_mediator.query(disease_query(), enrich_links=False)
        other = cached_mediator.query(
            GlobalQuery(
                anchor_source="LocusLink",
                conditions=(Condition("Species", "=", "Homo sapiens"),),
            ),
            enrich_links=False,
        )
        assert other is not first

    def test_enrichment_flag_is_part_of_the_key(self, cached_mediator):
        lean = cached_mediator.query(disease_query(), enrich_links=False)
        rich = cached_mediator.query(disease_query(), enrich_links=True)
        assert rich is not lean

    def test_use_cache_false_bypasses(self, cached_mediator):
        first = cached_mediator.query(disease_query(), enrich_links=False)
        fresh = cached_mediator.query(
            disease_query(), enrich_links=False, use_cache=False
        )
        assert fresh is not first


class TestFreshness:
    def test_source_update_invalidates(self, cached_mediator, corpus):
        first = cached_mediator.query(disease_query(), enrich_links=False)
        mim = corpus.omim.mim_numbers()[0]
        new_locus = LocusRecord(
            locus_id=955555,
            organism="Homo sapiens",
            symbol="CACHE1",
            omim_ids=[mim],
        )
        corpus.locuslink.add(new_locus)
        try:
            second = cached_mediator.query(
                disease_query(), enrich_links=False
            )
            assert second is not first
            assert 955555 in second.gene_ids()
        finally:
            corpus.locuslink.remove(955555)
        third = cached_mediator.query(disease_query(), enrich_links=False)
        assert 955555 not in third.gene_ids()

    def test_cache_bounded(self, cached_mediator):
        bound = cached_mediator.artifacts.max_entries
        for cutoff in range(bound + 8):
            cached_mediator.query(
                GlobalQuery(
                    anchor_source="LocusLink",
                    conditions=(Condition("GeneID", ">", cutoff),),
                ),
                enrich_links=False,
            )
        assert (
            entries(cached_mediator, "answer")
            <= bound
        )


@pytest.fixture()
def private_federation():
    """A corpus + mediator no other test shares, safe to mutate."""
    corpus = AnnotationCorpus.generate(
        seed=7,
        parameters=CorpusParameters(loci=60, go_terms=40, omim_entries=20),
    )
    mediator = Mediator()
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    return corpus, mediator


class TestFetchPathFreshness:
    """The enrichment/symbol caches and the source equality indexes are
    keyed on source versions: a repeat query over unchanged sources is
    served from cache, and any mutation invalidates everything."""

    def test_repeat_enriched_query_hits_enrichment_cache(
        self, private_federation
    ):
        _corpus, mediator = private_federation
        first = mediator.query(
            disease_query(), enrich_links=True, use_cache=False
        )
        repeat = mediator.query(
            disease_query(), enrich_links=True, use_cache=False
        )
        assert first.gene_ids() == repeat.gene_ids()
        assert repeat.report.counters["enrichment_cache_hits"] > 0
        # The repeat needed no batched detail fetch: the translated
        # index was served whole from the mediator's cache.
        assert repeat.report.counters["batched_fetches"] == 0

    def test_link_source_update_misses_enrichment_cache(
        self, private_federation
    ):
        corpus, mediator = private_federation
        mediator.query(disease_query(), enrich_links=True, use_cache=False)
        warmed = mediator.query(
            disease_query(), enrich_links=True, use_cache=False
        )
        assert warmed.report.counters["enrichment_cache_hits"] > 0
        corpus.omim.add(
            OmimRecord(mim_number=699001, title="Synthetic syndrome")
        )
        fresh = mediator.query(
            disease_query(), enrich_links=True, use_cache=False
        )
        assert fresh.report.counters["enrichment_cache_hits"] == 0
        rewarmed = mediator.query(
            disease_query(), enrich_links=True, use_cache=False
        )
        assert rewarmed.report.counters["enrichment_cache_hits"] > 0

    def test_anchor_update_visible_through_indexed_path(
        self, private_federation
    ):
        corpus, mediator = private_federation
        mim = corpus.omim.mim_numbers()[0]
        first = mediator.query(disease_query(), enrich_links=True)
        assert 91111 not in first.gene_ids()
        corpus.locuslink.add(
            LocusRecord(
                locus_id=91111,
                organism="Homo sapiens",
                symbol="FRESH1",
                omim_ids=[mim],
            )
        )
        second = mediator.query(disease_query(), enrich_links=True)
        assert second is not first
        assert 91111 in second.gene_ids()

    def test_source_index_invalidated_by_mutation(self, private_federation):
        corpus, _mediator = private_federation
        store = corpus.locuslink
        condition = [NativeCondition("Symbol", "=", "FRESH2")]
        assert store.native_query(condition, use_index=True) == []
        store.add(
            LocusRecord(
                locus_id=92222, organism="Homo sapiens", symbol="FRESH2"
            )
        )
        [record] = store.native_query(condition, use_index=True)
        assert record["LocusID"] == 92222
        store.remove(92222)
        assert store.native_query(condition, use_index=True) == []

    def test_unregister_purges_fetch_cache(self, private_federation):
        _corpus, mediator = private_federation
        mediator.query(disease_query(), enrich_links=True, use_cache=False)
        # OMIM is the query's only link source, so it owns every
        # enrichment entry.
        assert entries(mediator, "enrichment") > 0
        mediator.unregister_source("OMIM")
        assert not entries(mediator, "enrichment")
