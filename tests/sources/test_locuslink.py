"""Tests for the LocusLink source: record, LL_tmpl format, store, generator."""

import pytest

from repro.navigation.links import resolve_url
from repro.sources.base import NativeCondition
from repro.sources.locuslink import (
    LocusLinkGenerator,
    LocusLinkStore,
    LocusRecord,
    parse_ll_tmpl,
    write_ll_tmpl,
)
from repro.sources.urls import url_for
from repro.util.errors import DataFormatError, QueryError
from repro.util.rng import DeterministicRng


@pytest.fixture
def fosb():
    return LocusRecord(
        locus_id=2354,
        organism="Homo sapiens",
        symbol="FOSB",
        description="FBJ murine osteosarcoma viral oncogene homolog B",
        position="19q13.32",
        aliases=["G0S3"],
        go_ids=["GO:0003700"],
        omim_ids=[164772],
        pubmed_ids=[8889548],
    )


class TestRecord:
    def test_validation_rejects_bad_locus_id(self):
        with pytest.raises(DataFormatError):
            LocusRecord(locus_id=0, organism="Homo sapiens", symbol="A1")

    def test_validation_rejects_empty_symbol(self):
        with pytest.raises(DataFormatError):
            LocusRecord(locus_id=1, organism="Homo sapiens", symbol="")

    def test_web_link_carries_locus_id(self, fosb):
        url = url_for("LocusLink", fosb.locus_id)
        assert url.endswith("LocRpt.cgi?l=2354")
        assert resolve_url(url) == ("LocusLink", 2354)

    def test_as_dict_shares_the_record_tuples(self, fosb):
        view = fosb.as_dict()
        assert fosb.go_ids == ("GO:0003700",)
        assert view["GoIDs"] is fosb.go_ids
        with pytest.raises(AttributeError):
            view["GoIDs"].append("GO:9999999")


class TestFormat:
    def test_write_layout(self, fosb):
        text = write_ll_tmpl([fosb])
        lines = text.splitlines()
        assert lines[0] == ">>2354"
        assert "LOCUSID: 2354" in lines
        assert "OFFICIAL_SYMBOL: FOSB" in lines
        assert "GO: GO:0003700" in lines
        assert "OMIM: 164772" in lines

    def test_round_trip(self, fosb):
        parsed = parse_ll_tmpl(write_ll_tmpl([fosb]))
        assert parsed == [fosb]

    def test_round_trip_many(self):
        records = LocusLinkGenerator(DeterministicRng(3)).generate(25)
        assert parse_ll_tmpl(write_ll_tmpl(records)) == records

    def test_empty_input(self):
        assert parse_ll_tmpl("") == []
        assert write_ll_tmpl([]) == ""

    def test_unknown_tags_tolerated(self):
        text = ">>5\nLOCUSID: 5\nORGANISM: Homo sapiens\n" \
               "OFFICIAL_SYMBOL: X1\nNM: NM_006732\n"
        records = parse_ll_tmpl(text)
        assert records[0].symbol == "X1"

    @pytest.mark.parametrize(
        "bad",
        [
            "LOCUSID: 5\n",  # field before separator
            ">>abc\nLOCUSID: 5\n",  # non-numeric separator
            ">>5\nLOCUSID: five\n",  # non-numeric LOCUSID
            ">>5\nORGANISM: Homo sapiens\nOFFICIAL_SYMBOL: X1\n",  # no LOCUSID
            ">>5\nLOCUSID: 6\nORGANISM: H\nOFFICIAL_SYMBOL: X1\n",  # mismatch
            ">>5\nLOCUSID: 5\nbroken line\n",  # untagged line
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataFormatError):
            parse_ll_tmpl(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(DataFormatError) as excinfo:
            parse_ll_tmpl(">>5\nLOCUSID: five\n")
        assert excinfo.value.line_number == 2


class TestStore:
    def test_indexes(self, fosb):
        store = LocusLinkStore([fosb])
        assert store.get(2354) is fosb
        assert store.native_query(
            [NativeCondition("Symbol", "=", "FOSB")]
        ) == [fosb.as_dict()]
        assert store.get(1) is None

    def test_duplicate_rejected(self, fosb):
        store = LocusLinkStore([fosb])
        with pytest.raises(DataFormatError):
            store.add(fosb)

    def test_remove(self, fosb):
        store = LocusLinkStore([fosb])
        store.remove(2354)
        assert store.count() == 0
        assert store.native_query(
            [NativeCondition("Symbol", "=", "FOSB")]
        ) == []
        with pytest.raises(DataFormatError):
            store.remove(2354)

    def test_version_bumps_on_mutation(self, fosb):
        store = LocusLinkStore()
        assert store.version == 0
        store.add(fosb)
        assert store.version == 1
        store.remove(2354)
        assert store.version == 2

    def test_dump_from_text_round_trip(self, fosb):
        store = LocusLinkStore([fosb])
        rebuilt = LocusLinkStore.from_text(store.dump())
        assert rebuilt.records() == store.records()


class TestNativeQuery:
    @pytest.fixture
    def store(self):
        records = LocusLinkGenerator(DeterministicRng(1)).generate(50)
        return LocusLinkStore(records)

    def test_equality_on_key(self, store):
        locus_id = store.locus_ids()[10]
        hits = store.native_query([NativeCondition("LocusID", "=", locus_id)])
        assert [hit["LocusID"] for hit in hits] == [locus_id]

    def test_range_on_key(self, store):
        cutoff = store.locus_ids()[25]
        hits = store.native_query([NativeCondition("LocusID", "<", cutoff)])
        assert len(hits) == 25

    def test_organism_filter(self, store):
        hits = store.native_query(
            [NativeCondition("Organism", "=", "Mus musculus")]
        )
        assert hits
        assert all(hit["Organism"] == "Mus musculus" for hit in hits)

    def test_contains_on_description(self, store):
        hits = store.native_query(
            [NativeCondition("Description", "contains", "kinase")]
        )
        assert all("kinase" in hit["Description"].lower() for hit in hits)

    def test_multivalued_field_equality(self):
        record = LocusRecord(
            locus_id=7,
            organism="Homo sapiens",
            symbol="AB1",
            go_ids=["GO:0000001", "GO:0000002"],
        )
        store = LocusLinkStore([record])
        hits = store.native_query(
            [NativeCondition("GoIDs", "=", "GO:0000002")]
        )
        assert len(hits) == 1

    def test_unsupported_condition_rejected(self, store):
        with pytest.raises(QueryError):
            store.native_query(
                [NativeCondition("Description", "=", "anything")]
            )

    def test_conjunction(self, store):
        cutoff = store.locus_ids()[-1]
        hits = store.native_query(
            [
                NativeCondition("Organism", "=", "Homo sapiens"),
                NativeCondition("LocusID", "<=", cutoff),
            ]
        )
        assert all(hit["Organism"] == "Homo sapiens" for hit in hits)

    def test_describe_mentions_capabilities(self, store):
        description = store.describe()
        assert "LocusLink" in description
        assert "Symbol" in description


class TestGenerator:
    def test_deterministic(self):
        a = LocusLinkGenerator(DeterministicRng(9)).generate(30)
        b = LocusLinkGenerator(DeterministicRng(9)).generate(30)
        assert a == b

    def test_unique_ids_and_symbols(self):
        records = LocusLinkGenerator(DeterministicRng(2)).generate(200)
        ids = [record.locus_id for record in records]
        symbols = [record.symbol for record in records]
        assert len(set(ids)) == len(ids)
        assert len(set(symbols)) == len(symbols)

    def test_organism_mix(self):
        records = LocusLinkGenerator(DeterministicRng(4)).generate(300)
        organisms = {record.organism for record in records}
        assert "Homo sapiens" in organisms
        assert len(organisms) >= 2

    def test_no_links_before_corpus_wiring(self):
        records = LocusLinkGenerator(DeterministicRng(5)).generate(10)
        assert all(not record.go_ids for record in records)
        assert all(not record.omim_ids for record in records)
