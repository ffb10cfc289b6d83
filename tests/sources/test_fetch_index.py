"""Tests for the source-level equality-index fetch path.

The hash index must be an invisible optimization: same answers as the
scan (including Lorel's coercing equality), invalidated by any store
mutation, and accounted in ``fetch_stats``.
"""

import pytest

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

    def test_index_results_are_copies(self, store):
        [record] = store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )
        record["Symbol"] = "MUTATED"
        [again] = store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )
        assert again["Symbol"] == "FOSB"

    def test_scan_path_sees_in_place_mutation(self, store):
        """Stores mutated in place (no version bump) stay visible to
        scans: the scan re-reads ``records()`` instead of the
        per-version index snapshot."""
        store.native_query(
            [NativeCondition("LocusID", "=", 2354)], use_index=True
        )  # warm the per-version index state
        store.get(2354).pubmed_ids.append(99999)
        [mutated] = [
            record
            for record in store.native_query([])
            if record["LocusID"] == 2354
        ]
        assert 99999 in mutated["PubmedIDs"]


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
