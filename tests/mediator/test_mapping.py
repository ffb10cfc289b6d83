"""Tests for the mapping module: MDSM-driven correspondences and
translation."""

import pytest

from repro.core.annoda import Annoda
from repro.mediator import GlobalSchema, MappingModule, TransformRegistry
from repro.questions import QuestionCatalog
from repro.sources import CorpusParameters
from repro.util.errors import ConfigurationError, IntegrationError
from repro.wrappers import LocusLinkWrapper, OmimWrapper

#: The expected correspondences for all four sources — the matching
#: ground truth the MDSM ablation benchmark also scores against.
EXPECTED_LOCUSLINK = {
    "LocusID": "GeneID",
    "Organism": "Species",
    "Symbol": "GeneSymbol",
    "Description": "Definition",
    "Position": "MapPosition",
    "Alias": "AliasSymbol",
    "GoID": "AnnotationID",
    "OmimID": "DiseaseID",
    "PubmedID": "CitationID",
}

EXPECTED_GO = {
    "GoID": "AnnotationID",
    "Name": "Title",
    "Namespace": "Aspect",
    "Definition": "Definition",
    "IsA": "ParentTerm",
    "Synonym": "AliasSymbol",
    "Obsolete": "Obsolete",
}

EXPECTED_OMIM = {
    "MimNumber": "DiseaseID",
    "Title": "Title",
    "GeneSymbol": "GeneSymbol",
    "Text": "Definition",
    "Inheritance": "Inheritance",
}

EXPECTED_PUBMED = {
    "Pmid": "CitationID",
    "Title": "Title",
    "Journal": "Journal",
    "Year": "Year",
    "LocusID": "GeneID",
}


class TestGlobalSchema:
    def test_vocabulary_lookup(self):
        schema = GlobalSchema()
        assert "GeneSymbol" in schema
        assert schema.get("GeneSymbol").name == "GeneSymbol"
        assert schema.get("Nope") is None

    def test_names_unique(self):
        schema = GlobalSchema()
        assert len(set(schema.names())) == len(schema)


class TestMdsmCorrespondences:
    def test_locuslink_fully_matched(self, corpus):
        module = MappingModule()
        result = module.register_wrapper(LocusLinkWrapper(corpus.locuslink))
        found = {c.local_name: c.global_name for c in result}
        assert found == EXPECTED_LOCUSLINK

    def test_go_fully_matched(self, mediator):
        found = {
            c.local_name: c.global_name
            for c in mediator.correspondences("GO")
        }
        assert found == EXPECTED_GO

    def test_omim_fully_matched(self, mediator):
        found = {
            c.local_name: c.global_name
            for c in mediator.correspondences("OMIM")
        }
        assert found == EXPECTED_OMIM

    def test_pubmed_fully_matched(self, corpus):
        from repro.wrappers import PubmedLikeWrapper

        module = MappingModule()
        result = module.register_wrapper(
            PubmedLikeWrapper(corpus.make_citation_store(40))
        )
        found = {c.local_name: c.global_name for c in result}
        assert found == EXPECTED_PUBMED

    def test_double_registration_rejected(self, corpus):
        module = MappingModule()
        module.register_wrapper(LocusLinkWrapper(corpus.locuslink))
        with pytest.raises(IntegrationError):
            module.register_wrapper(LocusLinkWrapper(corpus.locuslink))


class TestTranslation:
    def test_record_rekeyed_to_global(self, corpus):
        module = MappingModule()
        wrapper = LocusLinkWrapper(corpus.locuslink)
        module.register_wrapper(wrapper)
        record = corpus.locuslink.records()[0]
        translated = module.translate_record("LocusLink", record, wrapper)
        assert translated["GeneID"] == record["LocusID"]
        assert translated["GeneSymbol"] == record["Symbol"]
        assert translated["Species"] == record["Organism"]

    def test_answer_rows_do_not_alias_the_extent(self):
        """A caller editing an answer row's list cannot poison a later
        answer: translated rows copy list values out of the fetched
        records, which are the source's shared extent."""
        annoda = Annoda.with_default_sources(
            seed=23, parameters=CorpusParameters(loci=120)
        )
        question = QuestionCatalog.disease_genes(organism="Homo sapiens")
        first = annoda.ask(question, use_cache=False)
        assert first.report.counters["index_hits"] > 0
        expected = list(first.genes[0]["AliasSymbol"])
        first.genes[0]["AliasSymbol"].append("POISON")
        again = annoda.ask(question, use_cache=False)
        assert again.genes[0]["AliasSymbol"] == expected

    def test_label_lookup_errors(self, corpus):
        module = MappingModule()
        module.register_wrapper(LocusLinkWrapper(corpus.locuslink))
        with pytest.raises(IntegrationError):
            module.to_local_label("LocusLink", "Journal")
        with pytest.raises(IntegrationError):
            module.to_local_label("Unknown", "GeneID")

    def test_transform_rule_applied(self, corpus):
        module = MappingModule()
        wrapper = OmimWrapper(corpus.omim)
        module.register_wrapper(wrapper)
        module.add_transform_rule("OMIM", "GeneSymbol", "uppercase")
        linked = next(
            record
            for record in corpus.omim.records()
            if record["GeneSymbols"]
        )
        translated = module.translate_record("OMIM", linked, wrapper)
        assert all(
            symbol == symbol.upper()
            for symbol in translated["GeneSymbol"]
        )


class TestTransformRegistry:
    def test_defaults_present(self):
        registry = TransformRegistry()
        assert registry.apply("uppercase", "fosb") == "FOSB"
        assert registry.apply("to_integer", "42") == 42

    def test_custom_registration(self):
        registry = TransformRegistry()
        registry.register("double", lambda value: value * 2)
        assert registry.apply("double", 3) == 6

    def test_unknown_transform_rejected(self):
        registry = TransformRegistry()
        with pytest.raises(ConfigurationError):
            registry.get("quantum")

    def test_non_callable_rejected(self):
        registry = TransformRegistry()
        with pytest.raises(ConfigurationError):
            registry.register("bad", 42)
