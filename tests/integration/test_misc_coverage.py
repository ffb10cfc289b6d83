"""Targeted tests for small public APIs not covered elsewhere."""

import pytest

from repro.matching import Correspondence, CorrespondenceSet
from repro.mediator.fetch import FetchRequest
from repro.navigation.links import make_web_link
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.util.errors import QueryError
from repro.wrappers import SwissProtLikeWrapper


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=91,
        parameters=CorpusParameters(loci=50, go_terms=30, omim_entries=15),
    )


class TestMakeWebLink:
    def test_resolves_target_eagerly(self):
        link = make_web_link(
            "GO", "http://godatabase.org/cgi-bin/go.cgi?query=GO:0000002"
        )
        assert link.target_source == "GO"
        assert link.target_id == "GO:0000002"

    def test_unresolvable_rejected(self):
        with pytest.raises(QueryError):
            make_web_link("Homepage", "http://www.geneontology.org/")


class TestCorrespondenceSetExtras:
    def test_covered_global_names(self):
        cs = CorrespondenceSet(
            "S",
            [
                Correspondence("A", "GA", 0.9),
                Correspondence("B", "GB", 0.8),
            ],
        )
        assert cs.covered_global_names() == {"GA", "GB"}
        assert len(cs) == 2
        assert [c.local_name for c in cs] == ["A", "B"]


class TestSwissProtWrapperExtras:
    def test_proteins_for_locus(self, corpus):
        store = corpus.make_protein_store()
        wrapper = SwissProtLikeWrapper(store)
        curated = next(
            record
            for record in store.all_records()
            if record.locus_id
        )
        hits = wrapper.fetch(
            FetchRequest.where(("LocusID", "=", curated.locus_id))
        )
        assert any(
            hit["Accession"] == curated.accession for hit in hits
        )
        assert wrapper.fetch(
            FetchRequest.where(("LocusID", "=", 999999999))
        ) == []


class TestEngineWorkspaceGrowth:
    def test_many_answers_get_distinct_names(self, corpus):
        from repro.wrappers import LocusLinkWrapper
        from repro.lorel import LorelEngine

        wrapper = LocusLinkWrapper(corpus.locuslink)
        graph, root = wrapper.build_local_model(limit=5)
        engine = LorelEngine()
        engine.register("LocusLink", graph, root)
        names = set()
        for _ in range(12):
            result = engine.query(
                "select X.Symbol from LocusLink.Locus X"
            )
            names.add(result.answer_name)
        assert len(names) == 12
        assert "answer" in names and "answer12" in names
