"""Tests for the source-level equality-index fetch path.

The hash index must be an invisible optimization: same answers as the
scan (including Lorel's coercing equality), invalidated by any store
mutation, and accounted in ``fetch_stats``.
"""

from dataclasses import replace

import pytest

from repro.core.annoda import Annoda
from repro.mediator import GlobalQuery
from repro.mediator.decompose import Condition
from repro.sources import CorpusParameters
from repro.sources.base import DataSource, NativeCondition
from repro.sources.locuslink import LocusRecord
from repro.sources.locuslink.store import LocusLinkStore
from repro.util.errors import QueryError


@pytest.fixture()
def store():
    return LocusLinkStore(
        [
            LocusRecord(
                locus_id=2354,
                organism="Homo sapiens",
                symbol="FOSB",
                description="FBJ murine osteosarcoma viral oncogene",
                go_ids=["GO:0003700", "GO:0005634"],
                omim_ids=[164772],
            ),
            LocusRecord(
                locus_id=11303,
                organism="Mus musculus",
                symbol="Abcd1",
                description="ATP-binding cassette transporter",
                go_ids=["GO:0005634"],
            ),
            LocusRecord(
                locus_id=7157,
                organism="Homo sapiens",
                symbol="TP53",
                description="tumor protein p53",
                omim_ids=[191170],
            ),
        ]
    )


class TestIndexedEquality:
    def test_same_answer_as_scan(self, store):
        conditions = [NativeCondition("Organism", "=", "Homo sapiens")]
        assert store.native_query(conditions, use_index=True) == (
            store.native_query(conditions, use_index=False)
        )

    def test_point_lookup(self, store):
        [record] = store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )
        assert record["Symbol"] == "FOSB"

    def test_string_probe_matches_integer_key(self, store):
        # Lorel's coercing equality: "2354" == 2354.
        [record] = store.native_query(
            [NativeCondition("LocusID", "=", "2354")], use_index=True
        )
        assert record["LocusID"] == 2354

    def test_padded_string_probe_matches_scan_semantics(self, store):
        # "02354" coerces numerically against the integer key, so both
        # paths must agree (and they must keep agreeing if the coercion
        # rules ever change — the index mirrors compare(), not a guess).
        indexed = store.native_query(
            [NativeCondition("LocusID", "=", "02354")], use_index=True
        )
        scan = store.native_query(
            [NativeCondition("LocusID", "=", "02354")], use_index=False
        )
        assert indexed == scan

    def test_list_field_membership(self, store):
        matched = store.native_query(
            [NativeCondition("GoIDs", "=", "GO:0005634")], use_index=True
        )
        assert [record["LocusID"] for record in matched] == [2354, 11303]

    def test_secondary_conditions_filter_index_hits(self, store):
        matched = store.native_query(
            [
                NativeCondition("Organism", "=", "Homo sapiens"),
                NativeCondition("Description", "contains", "p53"),
            ],
            use_index=True,
        )
        assert [record["LocusID"] for record in matched] == [7157]

    def test_records_order_preserved(self, store):
        indexed = store.native_query(
            [NativeCondition("Organism", "=", "Homo sapiens")],
            use_index=True,
        )
        assert [record["LocusID"] for record in indexed] == [2354, 7157]

    def test_unsupported_condition_rejected(self, store):
        with pytest.raises(QueryError):
            store.native_query([NativeCondition("Description", "=", "x")])


class TestInOperator:
    def test_batched_lookup(self, store):
        matched = store.native_query(
            [NativeCondition("LocusID", "in", (7157, 2354))],
            use_index=True,
        )
        assert [record["LocusID"] for record in matched] == [2354, 7157]

    def test_mixed_type_candidates(self, store):
        # String and integer candidates coerce individually.
        matched = store.native_query(
            [NativeCondition("LocusID", "in", ("7157", 2354, 999))],
            use_index=True,
        )
        assert [record["LocusID"] for record in matched] == [2354, 7157]

    def test_same_answer_as_scan(self, store):
        conditions = [NativeCondition("OmimIDs", "in", (191170, "164772"))]
        assert store.native_query(conditions, use_index=True) == (
            store.native_query(conditions, use_index=False)
        )

    def test_empty_candidate_set(self, store):
        assert store.native_query(
            [NativeCondition("LocusID", "in", ())], use_index=True
        ) == []

    def test_value_normalized_to_tuple(self):
        condition = NativeCondition("LocusID", "in", [1, 2])
        assert condition.value == (1, 2)

    def test_string_value_rejected(self):
        # A bare string iterates into characters; reject it outright.
        with pytest.raises(QueryError):
            NativeCondition("Symbol", "in", "FOSB")

    def test_non_iterable_rejected(self):
        with pytest.raises(QueryError):
            NativeCondition("LocusID", "in", 2354)


class TestInvalidation:
    def test_added_record_visible_to_index(self, store):
        assert store.native_query(
            [NativeCondition("LocusID", "=", 555)], use_index=True
        ) == []
        store.add(
            LocusRecord(locus_id=555, organism="Homo sapiens", symbol="NEW1")
        )
        [record] = store.native_query(
            [NativeCondition("LocusID", "=", 555)], use_index=True
        )
        assert record["Symbol"] == "NEW1"

    def test_removed_record_gone_from_index(self, store):
        store.native_query(
            [NativeCondition("LocusID", "=", 7157)], use_index=True
        )
        store.remove(7157)
        assert store.native_query(
            [NativeCondition("LocusID", "=", 7157)], use_index=True
        ) == []

    def test_fetched_records_are_read_only(self, store):
        """Records cross the wrapper boundary as the extent's shared
        read-only mappings, on both paths, so no caller can corrupt
        later hits; ``dict(record)`` is the mutable copy."""
        [indexed] = store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )
        [scanned] = store.native_query(
            [NativeCondition("Description", "contains", "osteosarcoma")]
        )
        for record in (indexed, scanned):
            with pytest.raises(TypeError):
                record["Symbol"] = "MUTATED"
        copy = dict(indexed)
        copy["Symbol"] = "MUTATED"
        [again] = store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )
        assert again["Symbol"] == "FOSB"

    def test_update_through_the_store_visible_to_every_path(self):
        """A change made through ``remove``/``add`` reaches the scan
        path, the index path and an uncached ``ask`` alike — even when
        each of them was warm at the old version."""
        annoda = Annoda.with_default_sources(
            seed=23, parameters=CorpusParameters(loci=120)
        )
        store = annoda.corpus.locuslink
        locus_id = store.locus_ids()[5]
        question = GlobalQuery(
            anchor_source="LocusLink",
            conditions=(Condition("GeneID", "=", locus_id),),
        )
        probe = [NativeCondition("PubmedIDs", "=", 99999)]
        for use_index in (True, False):
            assert store.native_query(probe, use_index=use_index) == []
        assert 99999 not in annoda.ask(question).genes[0]["CitationID"]

        record = store.get(locus_id)
        store.remove(locus_id)
        store.add(replace(record, pubmed_ids=[*record.pubmed_ids, 99999]))

        for use_index in (True, False):
            assert [
                hit["LocusID"]
                for hit in store.native_query(probe, use_index=use_index)
            ] == [locus_id]
        for use_cache in (False, True):
            [gene] = annoda.ask(question, use_cache=use_cache).genes
            assert 99999 in gene["CitationID"]


class TestExtent:
    def test_one_extent_per_version(self, store):
        """Every scan and index hit at one version hands out the same
        record objects; a version bump builds a new extent."""
        first = store.native_query([])
        second = store.native_query([], use_index=False)
        assert len(first) == len(second) == 3
        assert all(a is b for a, b in zip(first, second))
        [hit] = store.native_query(
            [NativeCondition("LocusID", "=", 7157)], use_index=True
        )
        assert hit is first[1]
        store.add(
            LocusRecord(locus_id=555, organism="Homo sapiens", symbol="NEW1")
        )
        third = store.native_query([])
        assert [record["LocusID"] for record in third] == [
            555, 2354, 7157, 11303,
        ]
        assert not any(new is old for new in third for old in first)


class TestAccounting:
    def test_index_hits_counted(self, store):
        before = store.fetch_stats()["index_hits"]
        store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )
        assert store.fetch_stats()["index_hits"] == before + 1

    def test_scans_counted(self, store):
        before = store.fetch_stats()["scan_queries"]
        store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=False
        )
        assert store.fetch_stats()["scan_queries"] == before + 1

    def test_use_indexes_flag_forces_scan(self, store):
        store.use_indexes = False
        before = store.fetch_stats()["scan_queries"]
        store.native_query([NativeCondition("LocusID", "=", 2354)])
        assert store.fetch_stats()["scan_queries"] == before + 1

    def test_non_equality_query_scans(self, store):
        before = store.fetch_stats()["scan_queries"]
        store.native_query(
            [NativeCondition("Description", "contains", "p53")]
        )
        assert store.fetch_stats()["scan_queries"] == before + 1


class _UnhashableText(str):
    """A string that cannot be hashed (so it cannot be an index key)."""

    __hash__ = None


class _UnhashableSource(DataSource):
    """A source whose ``Blob`` field holds unhashable values."""

    name = "unhashable"

    def fields(self):
        return ("Key", "Blob")

    def capabilities(self):
        return frozenset({("Key", "="), ("Blob", "=")})

    def records(self):
        return [
            {"Key": 1, "Blob": _UnhashableText("alpha")},
            {"Key": 2, "Blob": _UnhashableText("beta")},
        ]

    def count(self):
        return 2

    @property
    def version(self):
        return 0


class TestUnindexableFallback:
    def test_unhashable_field_falls_back_to_scan(self):
        source = _UnhashableSource()
        [record] = source.native_query(
            [NativeCondition("Blob", "=", "beta")], use_index=True
        )
        assert record["Key"] == 2
        assert source.fetch_stats()["scan_queries"] == 1
        assert source.fetch_stats()["index_hits"] == 0

    def test_hashable_sibling_field_still_indexed(self):
        source = _UnhashableSource()
        source.native_query(
            [NativeCondition("Blob", "=", "alpha")], use_index=True
        )
        [record] = source.native_query(
            [NativeCondition("Key", "=", 2)], use_index=True
        )
        assert record["Key"] == 2
        assert source.fetch_stats()["index_hits"] == 1
