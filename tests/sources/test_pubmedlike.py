"""Tests for the PubMed-like citation source."""

import pytest

from repro.navigation.links import resolve_url
from repro.sources.base import NativeCondition
from repro.sources.pubmedlike import (
    Citation,
    CitationGenerator,
    CitationStore,
    parse_medline,
    write_medline,
)
from repro.sources.urls import url_for
from repro.util.errors import DataFormatError
from repro.util.rng import DeterministicRng


@pytest.fixture
def citation():
    return Citation(
        pmid=8889548,
        title="Induction of osteosarcoma transformation by FosB.",
        journal="Nature",
        year=1996,
        locus_ids=[2354],
    )


class TestCitation:
    def test_year_range_enforced(self):
        with pytest.raises(DataFormatError):
            Citation(pmid=1, title="T", journal="J", year=2049)

    def test_web_link(self, citation):
        url = url_for("PubMed", citation.pmid)
        assert url.endswith("db=PubMed&list_uids=8889548")
        assert resolve_url(url) == ("PubMed", 8889548)


class TestFormat:
    def test_round_trip(self, citation):
        assert parse_medline(write_medline([citation])) == [citation]

    def test_round_trip_generated(self):
        citations = CitationGenerator(DeterministicRng(1)).generate(
            30, [10, 20, 30]
        )
        assert parse_medline(write_medline(citations)) == citations

    def test_blank_line_separates_citations(self, citation):
        other = Citation(pmid=1, title="T", journal="J", year=2000)
        text = write_medline([citation, other])
        assert parse_medline(text) == [citation, other]

    @pytest.mark.parametrize(
        "bad",
        [
            "TI  - before pmid\n",
            "PMID- abc\n",
            "PMID- 1\nTI  - T\nTA  - J\nDP  - soon\n",
            "PMID- 1\nbroken\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataFormatError):
            parse_medline(bad)


class TestStore:
    def test_by_locus_index(self, citation):
        store = CitationStore([citation])
        assert store.native_query(
            [NativeCondition("LocusIDs", "=", 2354)]
        ) == [citation.as_dict()]
        assert store.native_query(
            [NativeCondition("LocusIDs", "=", 999)]
        ) == []

    def test_native_year_range(self, citation):
        store = CitationStore([citation])
        assert store.native_query([NativeCondition("Year", ">=", 1996)])
        assert not store.native_query([NativeCondition("Year", "<", 1996)])

    def test_dump_round_trip(self, citation):
        store = CitationStore([citation])
        assert (
            CitationStore.from_text(store.dump()).records()
            == store.records()
        )


class TestGenerator:
    def test_links_drawn_from_pool(self):
        pool = [5, 10, 15]
        citations = CitationGenerator(DeterministicRng(2)).generate(50, pool)
        for citation in citations:
            assert all(locus in pool for locus in citation.locus_ids)

    def test_empty_pool_allowed(self):
        citations = CitationGenerator(DeterministicRng(3)).generate(5, [])
        assert all(not citation.locus_ids for citation in citations)
