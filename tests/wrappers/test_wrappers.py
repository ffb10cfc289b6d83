"""Tests for the wrapper layer: OML construction, pushdown, schema export."""

import pytest

from repro.mediator.fetch import FetchRequest
from repro.mediator.reconcile import SymbolIndex
from repro.oem import OEMGraph, OEMType, write_figure3
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.util.errors import QueryError
from repro.wrappers import (
    GoWrapper,
    LocusLinkWrapper,
    OmimWrapper,
    PubmedLikeWrapper,
    default_wrappers,
)


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=3,
        parameters=CorpusParameters(loci=40, go_terms=30, omim_entries=15),
    )


@pytest.fixture(scope="module")
def ll_wrapper(corpus):
    return LocusLinkWrapper(corpus.locuslink)


class TestEntryConstruction:
    def test_figure2_shape(self, ll_wrapper, corpus):
        graph = OEMGraph()
        record = corpus.locuslink.records()[0]
        entry = ll_wrapper.build_entry(graph, record)
        labels = entry.labels()
        for expected in ("LocusID", "Organism", "Symbol", "Description",
                         "Position"):
            assert expected in labels

    def test_types_match_figure3(self, ll_wrapper, corpus):
        graph = OEMGraph()
        record = corpus.locuslink.records()[0]
        entry = ll_wrapper.build_entry(graph, record)
        locus_id = graph.children(entry, "LocusID")[0]
        assert locus_id.type is OEMType.INTEGER
        organism = graph.children(entry, "Organism")[0]
        assert organism.type is OEMType.STRING

    def test_links_are_urls(self, ll_wrapper, corpus):
        graph = OEMGraph()
        record = corpus.locuslink.records()[0]
        entry = ll_wrapper.build_entry(graph, record)
        links = graph.children(entry, "Links")[0]
        assert links.is_complex
        for child in graph.children(links):
            assert child.type is OEMType.URL

    def test_go_links_fan_out(self, ll_wrapper, corpus):
        annotated = next(
            record
            for record in corpus.locuslink.records()
            if len(record["GoIDs"]) >= 2
        )
        graph = OEMGraph()
        entry = ll_wrapper.build_entry(graph, annotated)
        links = graph.children(entry, "Links")[0]
        go_links = links.refs_with_label("GO")
        assert len(go_links) == len(annotated["GoIDs"])

    def test_empty_fields_omitted(self, corpus):
        wrapper = OmimWrapper(corpus.omim)
        unlinked = next(
            (
                record
                for record in corpus.omim.records()
                if not record["GeneSymbols"]
            ),
            None,
        )
        if unlinked is None:
            pytest.skip("all OMIM entries linked at this seed")
        graph = OEMGraph()
        entry = wrapper.build_entry(graph, unlinked)
        assert "GeneSymbol" not in entry.labels()


class TestLocalModel:
    def test_model_has_entry_per_record(self, ll_wrapper, corpus):
        graph, root = ll_wrapper.build_local_model()
        assert len(root.refs_with_label("Locus")) == corpus.locuslink.count()

    def test_fresh_model_root_is_oid_one(self, ll_wrapper):
        graph, root = ll_wrapper.build_local_model()
        assert root.oid == 1

    def test_model_renders_as_figure3(self, ll_wrapper):
        graph, root = ll_wrapper.build_local_model(limit=1)
        text = write_figure3(graph, "LocusLink", root)
        assert text.startswith("LocusLink &1 Complex")
        assert "LocusID" in text and "Integer" in text

    def test_model_cache_tracks_version(self, corpus):
        wrapper = GoWrapper(corpus.go)
        first_graph, _ = wrapper.local_model()
        again_graph, _ = wrapper.local_model()
        assert first_graph is again_graph  # cached

    def test_model_is_valid_oem(self, ll_wrapper):
        graph, _ = ll_wrapper.build_local_model()
        assert graph.validate() == []


class TestPushdown:
    def test_supported_condition_translated(self, ll_wrapper):
        hits = ll_wrapper.fetch(
            FetchRequest((("Organism", "=", "Homo sapiens"),))
        )
        assert hits
        assert all(hit["Organism"] == "Homo sapiens" for hit in hits)

    def test_oml_label_translated_to_source_field(self, ll_wrapper, corpus):
        annotated = next(
            record
            for record in corpus.locuslink.records()
            if record["GoIDs"]
        )
        hits = ll_wrapper.fetch(
            FetchRequest((("GoID", "=", annotated["GoIDs"][0]),))
        )
        assert any(hit["LocusID"] == annotated["LocusID"] for hit in hits)

    def test_supports_reflects_source_capabilities(self, ll_wrapper):
        assert ll_wrapper.supports("LocusID", "=")
        assert ll_wrapper.supports("Description", "contains")
        assert not ll_wrapper.supports("Description", "=")
        assert not ll_wrapper.supports("NoSuchLabel", "=")

    def test_unsupported_condition_raises(self, ll_wrapper):
        with pytest.raises(QueryError):
            ll_wrapper.fetch(FetchRequest((("Description", "=", "x"),)))

    def test_unknown_label_raises(self, ll_wrapper):
        with pytest.raises(QueryError):
            ll_wrapper.source_field("Bogus")


class TestSchemaExport:
    def test_elements_cover_all_labels(self, ll_wrapper):
        names = [element.name for element in ll_wrapper.schema_elements()]
        assert names == [
            "LocusID",
            "Organism",
            "Symbol",
            "Description",
            "Position",
            "Alias",
            "GoID",
            "OmimID",
            "PubmedID",
        ]

    def test_samples_drawn_from_live_data(self, ll_wrapper, corpus):
        elements = {
            element.name: element
            for element in ll_wrapper.schema_elements()
        }
        known_symbols = {
            record["Symbol"] for record in corpus.locuslink.records()
        }
        assert set(elements["Symbol"].samples) <= known_symbols
        assert elements["Symbol"].samples

    def test_multivalued_flag(self, ll_wrapper):
        elements = {
            element.name: element
            for element in ll_wrapper.schema_elements()
        }
        assert elements["GoID"].multivalued
        assert not elements["LocusID"].multivalued


class TestGoWrapperGraphHelpers:
    def test_ancestors_passthrough(self, corpus):
        wrapper = GoWrapper(corpus.go)
        term = next(
            term for term in corpus.go.all_records() if term.is_a
        )
        assert wrapper.ancestors(term.go_id) == corpus.go.ancestors(
            term.go_id
        )

    def test_obsolete_check(self, corpus):
        wrapper = GoWrapper(corpus.go)
        assert not wrapper.is_obsolete("GO:0000001")
        assert not wrapper.is_obsolete("GO:9999999")
        assert wrapper.exists("GO:0000001")


class TestOmimWrapperSymbolHelpers:
    """OMIM's symbol lookups go through the ordinary fetch path: the
    source's exact ``GeneSymbols`` index, and the mediator's
    :class:`~repro.mediator.reconcile.SymbolIndex` over one fetch."""

    def test_entries_for_symbol_exact(self, corpus):
        wrapper = OmimWrapper(corpus.omim)
        linked = next(
            entry
            for entry in corpus.omim.all_records()
            if entry.gene_symbols
        )
        symbol = linked.gene_symbols[0]
        hits = wrapper.fetch(FetchRequest.where(("GeneSymbol", "=", symbol)))
        assert any(hit["MimNumber"] == linked.mim_number for hit in hits)
        assert wrapper.fetch(
            FetchRequest.where(("GeneSymbol", "=", symbol.lower()))
        ) == []

    def test_symbols_with_entries(self, corpus):
        index = SymbolIndex.from_wrapper(OmimWrapper(corpus.omim))
        for entry in corpus.omim.all_records():
            for symbol in entry.gene_symbols:
                assert entry.mim_number in index.exact(symbol)


class TestPubmedLikeWrapper:
    def test_citation_model(self, corpus):
        store = corpus.make_citation_store(count=25)
        wrapper = PubmedLikeWrapper(store)
        graph, root = wrapper.build_local_model()
        assert len(root.refs_with_label("Citation")) == 25

    def test_citations_for_locus(self, corpus):
        store = corpus.make_citation_store(count=25)
        wrapper = PubmedLikeWrapper(store)
        cited = next(
            citation
            for citation in store.all_records()
            if citation.locus_ids
        )
        hits = wrapper.fetch(
            FetchRequest.where(("LocusID", "=", cited.locus_ids[0]))
        )
        assert any(hit["Pmid"] == cited.pmid for hit in hits)


class TestDefaultWrappers:
    def test_paper_trio(self, corpus):
        wrappers = default_wrappers(corpus)
        assert [wrapper.name for wrapper in wrappers] == [
            "LocusLink",
            "GO",
            "OMIM",
        ]
