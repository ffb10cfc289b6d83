"""Tests for the SwissProt-like protein source."""

import pytest

from repro.navigation.links import resolve_url
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition
from repro.sources.swissprotlike import (
    ProteinGenerator,
    ProteinRecord,
    ProteinStore,
    parse_dat,
    write_dat,
)
from repro.sources.urls import url_for
from repro.util.errors import DataFormatError
from repro.util.rng import DeterministicRng


@pytest.fixture
def fosb_protein():
    return ProteinRecord(
        accession="P53539",
        protein_name="Protein fosB",
        organism="Homo sapiens",
        gene_symbol="FOSB",
        locus_id=2354,
        sequence_length=338,
        keywords=["Transcription", "Nuclear protein"],
    )


class TestRecord:
    def test_accession_format_enforced(self):
        with pytest.raises(DataFormatError):
            ProteinRecord(accession="X1", protein_name="p", organism="o")
        with pytest.raises(DataFormatError):
            ProteinRecord(
                accession="p53539", protein_name="p", organism="o"
            )

    def test_name_required(self):
        with pytest.raises(DataFormatError):
            ProteinRecord(accession="P53539", protein_name="", organism="o")

    def test_web_link(self, fosb_protein):
        url = url_for("SwissProt", fosb_protein.accession)
        assert url.endswith("niceprot.pl?P53539")
        assert resolve_url(url) == ("SwissProt", "P53539")


class TestDatFormat:
    def test_write_layout(self, fosb_protein):
        text = write_dat([fosb_protein])
        lines = text.splitlines()
        assert lines[0].startswith("ID   FOSB_HOMSA")
        assert "338 AA." in lines[0]
        assert "AC   P53539" in lines
        assert "DR   LocusLink; 2354" in lines
        assert "KW   Transcription; Nuclear protein" in lines
        assert lines[-1] == "//"

    def test_round_trip(self, fosb_protein):
        assert parse_dat(write_dat([fosb_protein])) == [fosb_protein]

    def test_round_trip_generated(self):
        corpus = AnnotationCorpus.generate(
            seed=2,
            parameters=CorpusParameters(
                loci=40, go_terms=20, omim_entries=10
            ),
        )
        generator = ProteinGenerator(DeterministicRng(5))
        records = generator.generate(corpus.locuslink.all_records())
        assert records
        assert parse_dat(write_dat(records)) == records

    def test_uncurated_entry_has_no_dr_line(self):
        record = ProteinRecord(
            accession="Q12345",
            protein_name="p",
            organism="o",
            gene_symbol="AB1",
        )
        text = write_dat([record])
        assert "DR" not in text
        assert parse_dat(text)[0].locus_id == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "AC   P53539\n//\n",  # field before ID
            "ID   X_Y Reviewed; 10 AA.\nAC   P53539\n",  # missing //
            "ID   X_Y Reviewed; 10 AA.\nID   Z_W Reviewed; 5 AA.\n//\n",
            "//\n",  # terminator without entry
            "ID   X_Y Reviewed; no length\nAC   P53539\n//\n",
            "ID   X_Y Reviewed; 10 AA.\nAC   P53539\n"
            "DE   p\nOS   o\nDR   LocusLink; abc\n//\n",
            "ID   X_Y Reviewed; 10 AA.\nbadline\n//\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataFormatError):
            parse_dat(bad)

    def test_unknown_line_codes_tolerated(self, fosb_protein):
        text = write_dat([fosb_protein]).replace(
            "//", "SQ   SEQUENCE 338 AA;\n//"
        )
        assert parse_dat(text) == [fosb_protein]


class TestStore:
    def test_indexes(self, fosb_protein):
        store = ProteinStore([fosb_protein])
        assert store.get("P53539") is fosb_protein
        assert store.native_query(
            [NativeCondition("LocusID", "=", 2354)]
        ) == [fosb_protein.as_dict()]
        assert store.native_query([NativeCondition("LocusID", "=", 1)]) == []

    def test_duplicate_rejected(self, fosb_protein):
        store = ProteinStore([fosb_protein])
        with pytest.raises(DataFormatError):
            store.add(fosb_protein)

    def test_dump_round_trip(self, fosb_protein):
        store = ProteinStore([fosb_protein])
        assert (
            ProteinStore.from_text(store.dump()).records()
            == store.records()
        )

    def test_native_queries(self, fosb_protein):
        store = ProteinStore([fosb_protein])
        assert store.native_query(
            [NativeCondition("Keywords", "=", "Transcription")]
        )
        assert store.native_query(
            [NativeCondition("SequenceLength", ">=", 300)]
        )
        assert not store.native_query(
            [NativeCondition("SequenceLength", "<", 300)]
        )


class TestGenerator:
    @pytest.fixture(scope="class")
    def corpus(self):
        return AnnotationCorpus.generate(
            seed=3,
            parameters=CorpusParameters(
                loci=100, go_terms=40, omim_entries=20
            ),
        )

    def test_deterministic_via_corpus(self, corpus):
        a = corpus.make_protein_store()
        b = corpus.make_protein_store()
        assert a.dump() == b.dump()

    def test_coverage_and_curation_mix(self, corpus):
        store = corpus.make_protein_store(
            coverage=0.6, uncurated_rate=0.3
        )
        assert 30 <= store.count() <= 90
        curated = [r for r in store.all_records() if r.locus_id]
        uncurated = [r for r in store.all_records() if not r.locus_id]
        assert curated and uncurated

    def test_proteins_reference_real_loci(self, corpus):
        store = corpus.make_protein_store()
        for record in store.all_records():
            if record.locus_id:
                locus = corpus.locuslink.get(record.locus_id)
                assert locus is not None
                assert locus.symbol == record.gene_symbol
