"""Tests for the OMIM source: record, omim.txt format, store, generator."""

import pytest

from repro.navigation.links import resolve_url
from repro.sources.base import NativeCondition
from repro.sources.omim import (
    OmimGenerator,
    OmimRecord,
    OmimStore,
    parse_omim_txt,
    write_omim_txt,
)
from repro.sources.urls import url_for
from repro.util.errors import DataFormatError
from repro.util.rng import DeterministicRng


@pytest.fixture
def fosb_entry():
    return OmimRecord(
        mim_number=164772,
        title="FBJ MURINE OSTEOSARCOMA VIRAL ONCOGENE HOMOLOG B; FOSB",
        gene_symbols=["FOSB"],
        text="FosB is a member of the Fos gene family.",
        inheritance="autosomal dominant",
    )


class TestRecord:
    def test_mim_number_must_be_six_digits(self):
        with pytest.raises(DataFormatError):
            OmimRecord(mim_number=999, title="X")
        with pytest.raises(DataFormatError):
            OmimRecord(mim_number=1000000, title="X")

    def test_title_required(self):
        with pytest.raises(DataFormatError):
            OmimRecord(mim_number=100050, title="")

    def test_web_link(self, fosb_entry):
        url = url_for("OMIM", fosb_entry.mim_number)
        assert url.endswith("dispomim.cgi?id=164772")
        assert resolve_url(url) == ("OMIM", 164772)


class TestFormat:
    def test_write_layout(self, fosb_entry):
        text = write_omim_txt([fosb_entry])
        lines = text.splitlines()
        assert lines[0] == "*RECORD*"
        assert "*FIELD* NO" in lines
        assert "164772" in lines
        assert "*FIELD* GS" in lines
        assert "FOSB" in lines

    def test_round_trip(self, fosb_entry):
        assert parse_omim_txt(write_omim_txt([fosb_entry])) == [fosb_entry]

    def test_round_trip_generated(self):
        records = OmimGenerator(DeterministicRng(2)).generate(40)
        for index, record in enumerate(records):
            record.gene_symbols = (f"SYM{index}",)
        assert parse_omim_txt(write_omim_txt(records)) == records

    def test_title_prefix_stripped(self):
        text = (
            "*RECORD*\n*FIELD* NO\n164772\n"
            "*FIELD* TI\n164772 SOME TITLE\n"
        )
        assert parse_omim_txt(text)[0].title == "SOME TITLE"

    def test_empty_input(self):
        assert parse_omim_txt("") == []

    @pytest.mark.parametrize(
        "bad",
        [
            "*FIELD* NO\n164772\n",  # field before record
            "*RECORD*\n*FIELD* TI\n164772 T\n",  # missing NO
            "*RECORD*\n*FIELD* NO\nabc\n*FIELD* TI\nT\n",  # non-numeric NO
            "*RECORD*\n*FIELD* NO\n164772\n",  # missing TI
            "*RECORD*\nstray content\n",  # content outside FIELD
            "*RECORD*\n*FIELD*\n164772\n",  # FIELD without tag
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataFormatError):
            parse_omim_txt(bad)


class TestStore:
    def test_indexes(self, fosb_entry):
        store = OmimStore([fosb_entry])
        assert store.get(164772) is fosb_entry
        assert store.native_query(
            [NativeCondition("GeneSymbols", "=", "FOSB")]
        ) == [fosb_entry.as_dict()]
        assert store.native_query(
            [NativeCondition("GeneSymbols", "=", "NOPE")]
        ) == []

    def test_duplicate_rejected(self, fosb_entry):
        store = OmimStore([fosb_entry])
        with pytest.raises(DataFormatError):
            store.add(fosb_entry)

    def test_dump_round_trip(self, fosb_entry):
        store = OmimStore([fosb_entry])
        assert OmimStore.from_text(store.dump()).records() == store.records()

    def test_native_title_contains(self, fosb_entry):
        store = OmimStore([fosb_entry])
        hits = store.native_query(
            [NativeCondition("Title", "contains", "osteosarcoma")]
        )
        assert len(hits) == 1

    def test_native_symbol_equality_is_case_sensitive(self, fosb_entry):
        # The raw source matches symbols exactly — case-insensitive
        # matching is reconciliation work, done at the mediator.
        store = OmimStore([fosb_entry])
        assert store.native_query(
            [NativeCondition("GeneSymbols", "=", "fosb")]
        ) == []


class TestGenerator:
    def test_deterministic(self):
        a = OmimGenerator(DeterministicRng(3)).generate(30)
        b = OmimGenerator(DeterministicRng(3)).generate(30)
        assert a == b

    def test_distinct_mim_numbers(self):
        records = OmimGenerator(DeterministicRng(4)).generate(100)
        numbers = [record.mim_number for record in records]
        assert len(set(numbers)) == len(numbers)

    def test_retitle_for_symbol(self):
        generator = OmimGenerator(DeterministicRng(5))
        record = generator.generate(1)[0]
        generator.retitle_for_symbol(record, "FOSB")
        assert "FOSB" in record.title
