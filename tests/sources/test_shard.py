"""Tests for key-range sharding behind the DataSource contract.

``ShardedSource`` must be an invisible partitioning: byte-identical
native-query answers (both paths, both representations), freshness
across base mutations (lazy repartition keyed on the base version),
snapshot export/adopt through the sharded envelope, and monotone fetch
accounting across repartitions.
"""

import pytest

from repro.sources.base import NativeCondition
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.sources.locuslink import LocusRecord
from repro.sources.shard import ShardedSource, SourceShard


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=29,
        parameters=CorpusParameters(
            loci=90, go_terms=60, omim_entries=30, conflict_rate=0.2
        ),
    )


CONDITION_SHAPES = [
    (),
    (NativeCondition("Organism", "=", "Homo sapiens"),),
    (NativeCondition("LocusID", "=", 1003),),
    (NativeCondition("LocusID", "in", (1001, 1005, 1040, 999999)),),
    (NativeCondition("Description", "contains", "kinase"),),
    (
        NativeCondition("Organism", "=", "Homo sapiens"),
        NativeCondition("Description", "contains", "protein"),
    ),
]


class TestQueryEquivalence:
    @pytest.mark.parametrize("shard_count", [1, 2, 4, 8])
    @pytest.mark.parametrize(
        "conditions", CONDITION_SHAPES, ids=lambda c: str(len(c))
    )
    def test_native_query_matches_base(self, corpus, shard_count,
                                       conditions):
        base = corpus.locuslink
        sharded = ShardedSource(base, shard_count)
        for use_index in (True, False):
            assert sharded.native_query(
                conditions, use_index=use_index
            ) == base.native_query(conditions, use_index=use_index)

    def test_shards_partition_the_extent(self, corpus):
        sharded = ShardedSource(corpus.go, 4)
        pieces = [shard.records() for shard in sharded.shards()]
        flattened = [record for piece in pieces for record in piece]
        assert flattened == corpus.go.records()
        assert sum(len(piece) for piece in pieces) == corpus.go.count()

    def test_shard_query_slices_the_answer(self, corpus):
        sharded = ShardedSource(corpus.omim, 3)
        conditions = ()
        slices = [
            sharded.shard_query(index, conditions)
            for index in range(sharded.shard_count)
        ]
        assert [
            record for piece in slices for record in piece
        ] == corpus.omim.native_query(conditions)

    def test_rejects_empty_grid(self, corpus):
        with pytest.raises(ValueError):
            ShardedSource(corpus.locuslink, 0)


class TestDelegation:
    def test_contract_surface_delegates_to_base(self, corpus):
        base = corpus.locuslink
        sharded = ShardedSource(base, 4)
        assert sharded.name == base.name
        assert sharded.version == base.version
        assert sharded.count() == base.count()
        assert tuple(sharded.fields()) == tuple(base.fields())
        assert sharded.indexed_fields() == base.indexed_fields()
        assert set(sharded.capabilities()) == set(base.capabilities())
        assert sharded.records() == base.records()

    def test_store_specific_methods_pass_through(self, corpus):
        sharded = ShardedSource(corpus.locuslink, 2)
        some_id = corpus.locuslink.locus_ids()[0]
        assert sharded.get(some_id) == corpus.locuslink.get(some_id)

    def test_dunder_lookup_never_recurses(self, corpus):
        sharded = ShardedSource(corpus.locuslink, 2)
        with pytest.raises(AttributeError):
            sharded._no_such_private_attr


class TestFreshness:
    def test_repartitions_when_base_mutates(self):
        store_corpus = AnnotationCorpus.generate(
            seed=5,
            parameters=CorpusParameters(
                loci=20, go_terms=10, omim_entries=5
            ),
        )
        base = store_corpus.locuslink
        sharded = ShardedSource(base, 2)
        before = sharded.native_query(())
        assert before == base.native_query(())
        base.add(
            LocusRecord(
                locus_id=424242,
                organism="Homo sapiens",
                symbol="NEW1",
                description="added after partitioning",
            )
        )
        after = sharded.native_query(())
        assert after == base.native_query(())
        assert len(after) == len(before) + 1
        assert sharded.version == base.version

    def test_fetch_stats_monotone_across_repartition(self):
        store_corpus = AnnotationCorpus.generate(
            seed=6,
            parameters=CorpusParameters(
                loci=20, go_terms=10, omim_entries=5
            ),
        )
        base = store_corpus.locuslink
        sharded = ShardedSource(base, 2)
        sharded.native_query(
            (NativeCondition("Organism", "=", "Homo sapiens"),),
            use_index=True,
        )
        before = sharded.fetch_stats()
        assert before["index_hits"] + before["scan_queries"] > 0
        base.add(
            LocusRecord(
                locus_id=434343,
                organism="Mus musculus",
                symbol="NEW2",
                description="forces a repartition",
            )
        )
        sharded.native_query(())
        after = sharded.fetch_stats()
        for key, value in before.items():
            assert after.get(key, 0) >= value


class TestShardSnapshots:
    def test_export_adopt_round_trip(self, corpus):
        base = corpus.locuslink
        warm = ShardedSource(base, 4)
        # Warm every partition's indexes, then export.
        warm.native_query(
            (NativeCondition("Organism", "=", "Homo sapiens"),),
            use_index=True,
        )
        state = warm.export_index_state()
        assert state["shard_count"] == 4
        assert len(state["shards"]) == 4

        cold = ShardedSource(base, 4)
        assert cold.adopt_index_state(state) is True
        stats = cold.fetch_stats()
        assert stats["index_adoptions"] > 0
        cold.native_query(
            (NativeCondition("Organism", "=", "Homo sapiens"),),
            use_index=True,
        )
        stats = cold.fetch_stats()
        assert stats["index_builds"] == 0
        assert stats["index_hits"] > 0

    def test_adopt_rejects_wrong_grid(self, corpus):
        state = ShardedSource(corpus.locuslink, 4).export_index_state()
        other = ShardedSource(corpus.locuslink, 2)
        assert other.adopt_index_state(state) is False

    def test_adopt_rejects_wrong_source(self, corpus):
        state = ShardedSource(corpus.locuslink, 2).export_index_state()
        other = ShardedSource(corpus.go, 2)
        assert other.adopt_index_state(state) is False

    def test_adopt_rejects_garbage(self, corpus):
        sharded = ShardedSource(corpus.locuslink, 2)
        assert sharded.adopt_index_state(None) is False
        assert sharded.adopt_index_state({"schema": 999}) is False


class TestSourceShard:
    def test_records_are_fresh_copies(self, corpus):
        shard = ShardedSource(corpus.locuslink, 2).shard(0)
        assert isinstance(shard, SourceShard)
        first = shard.records()
        first[0]["Symbol"] = "MUTATED"
        assert shard.records()[0]["Symbol"] != "MUTATED"

    def test_shard_names_the_partition(self, corpus):
        sharded = ShardedSource(corpus.locuslink, 3)
        assert [shard.name for shard in sharded.shards()] == [
            f"{corpus.locuslink.name}#shard{index}/3"
            for index in range(3)
        ]
