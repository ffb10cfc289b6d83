"""Tests for the GO source: term model, OBO format, ontology DAG, generator."""

import pytest

from repro.navigation.links import resolve_url
from repro.sources.base import NativeCondition
from repro.sources.go import (
    GoGenerator,
    GoOntology,
    GoTerm,
    NAMESPACES,
    parse_obo,
    write_obo,
)
from repro.sources.go.term import make_go_id
from repro.sources.urls import url_for
from repro.util.errors import DataFormatError
from repro.util.rng import DeterministicRng


def small_ontology():
    """mf_root <- binding <- dna_binding; binding <- protein_binding."""
    return GoOntology(
        [
            GoTerm("GO:0000001", "molecular_function", "molecular_function"),
            GoTerm(
                "GO:0000002",
                "binding",
                "molecular_function",
                is_a=["GO:0000001"],
            ),
            GoTerm(
                "GO:0000003",
                "DNA binding",
                "molecular_function",
                definition="Interacting selectively with DNA.",
                is_a=["GO:0000002"],
                synonyms=["deoxyribonucleic acid binding"],
            ),
            GoTerm(
                "GO:0000004",
                "protein binding",
                "molecular_function",
                is_a=["GO:0000002"],
            ),
        ]
    )


class TestTerm:
    def test_accession_format_enforced(self):
        with pytest.raises(DataFormatError):
            GoTerm("GO:123", "x", "molecular_function")
        with pytest.raises(DataFormatError):
            GoTerm("0000001", "x", "molecular_function")

    def test_namespace_enforced(self):
        with pytest.raises(DataFormatError):
            GoTerm("GO:0000001", "x", "molecular_funk")

    def test_make_go_id(self):
        assert make_go_id(42) == "GO:0000042"
        with pytest.raises(DataFormatError):
            make_go_id(10**8)

    def test_web_link(self):
        term = GoTerm("GO:0003700", "tf activity", "molecular_function")
        url = url_for("GO", term.go_id)
        assert url.endswith("go.cgi?query=GO:0003700")
        assert resolve_url(url) == ("GO", "GO:0003700")


class TestObo:
    def test_write_layout(self):
        text = small_ontology().dump()
        assert text.startswith("format-version: 1.2")
        assert "[Term]" in text
        assert "id: GO:0000003" in text
        assert 'def: "Interacting selectively with DNA."' in text
        assert "is_a: GO:0000002" in text

    def test_round_trip(self):
        ontology = small_ontology()
        rebuilt = GoOntology.from_text(ontology.dump())
        assert rebuilt.records() == ontology.records()

    def test_round_trip_generated(self):
        terms = GoGenerator(DeterministicRng(1)).generate(60)
        assert parse_obo(write_obo(terms)) == terms

    def test_is_a_comment_stripped(self):
        text = (
            "[Term]\nid: GO:0000001\nname: root\n"
            "namespace: molecular_function\n\n"
            "[Term]\nid: GO:0000002\nname: child\n"
            "namespace: molecular_function\nis_a: GO:0000001 ! root\n"
        )
        terms = parse_obo(text)
        assert terms[1].is_a == ("GO:0000001",)

    def test_escaped_quotes_in_def(self):
        term = GoTerm(
            "GO:0000001",
            "root",
            "molecular_function",
            definition='the "root" term \\ backslash',
        )
        rebuilt = parse_obo(write_obo([term]))
        assert rebuilt[0].definition == term.definition

    def test_non_term_stanzas_skipped(self):
        text = (
            "[Typedef]\nid: part_of\nname: part of\n\n"
            "[Term]\nid: GO:0000001\nname: root\n"
            "namespace: molecular_function\n"
        )
        terms = parse_obo(text)
        assert len(terms) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "[Term]\nid: GO:0000001\nname: x\nnamespace: bad_ns\n",
            "[Term]\nname: x\nnamespace: molecular_function\n",
            "[Term]\nid: GO:0000001\nname: x\n"
            "namespace: molecular_function\ndef: unquoted\n",
            "[Term]\nid: GO:0000001\nbroken line\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(DataFormatError):
            parse_obo(bad)


class TestOntologyGraph:
    def test_parents_children(self):
        ontology = small_ontology()
        assert [t.go_id for t in ontology.parents("GO:0000003")] == [
            "GO:0000002"
        ]
        assert {t.go_id for t in ontology.children("GO:0000002")} == {
            "GO:0000003",
            "GO:0000004",
        }

    def test_ancestors_transitive(self):
        ontology = small_ontology()
        assert ontology.ancestors("GO:0000003") == {
            "GO:0000002",
            "GO:0000001",
        }

    def test_descendants_transitive(self):
        ontology = small_ontology()
        assert ontology.descendants("GO:0000001") == {
            "GO:0000002",
            "GO:0000003",
            "GO:0000004",
        }

    def test_is_ancestor(self):
        ontology = small_ontology()
        assert ontology.is_ancestor("GO:0000001", "GO:0000004")
        assert not ontology.is_ancestor("GO:0000004", "GO:0000001")

    def test_depth(self):
        ontology = small_ontology()
        assert ontology.depth("GO:0000001") == 0
        assert ontology.depth("GO:0000003") == 2

    def test_roots(self):
        ontology = small_ontology()
        assert [t.go_id for t in ontology.roots()] == ["GO:0000001"]

    def test_search_by_name_includes_synonyms(self):
        ontology = small_ontology()
        assert [
            t.go_id for t in ontology.search_by_name("deoxyribonucleic")
        ] == ["GO:0000003"]
        assert len(ontology.search_by_name("binding")) == 3

    def test_unknown_term_raises(self):
        with pytest.raises(DataFormatError):
            small_ontology().parents("GO:9999999")

    def test_duplicate_rejected(self):
        ontology = small_ontology()
        with pytest.raises(DataFormatError):
            ontology.add(
                GoTerm("GO:0000001", "again", "molecular_function")
            )


class TestValidation:
    def test_well_formed_validates(self):
        assert small_ontology().validate() == []

    def test_missing_parent_detected(self):
        ontology = GoOntology(
            [
                GoTerm(
                    "GO:0000002",
                    "orphan",
                    "molecular_function",
                    is_a=["GO:0000001"],
                )
            ]
        )
        assert any("missing term" in p for p in ontology.validate())

    def test_cross_namespace_edge_detected(self):
        ontology = GoOntology(
            [
                GoTerm("GO:0000001", "root", "molecular_function"),
                GoTerm(
                    "GO:0000002",
                    "child",
                    "biological_process",
                    is_a=["GO:0000001"],
                ),
            ]
        )
        assert any("crosses namespaces" in p for p in ontology.validate())

    def test_cycle_detected(self):
        ontology = GoOntology(
            [
                GoTerm(
                    "GO:0000001",
                    "a",
                    "molecular_function",
                    is_a=["GO:0000002"],
                ),
                GoTerm(
                    "GO:0000002",
                    "b",
                    "molecular_function",
                    is_a=["GO:0000001"],
                ),
            ]
        )
        assert any("cycle" in p for p in ontology.validate())


class TestNativeQuery:
    def test_namespace_filter(self):
        ontology = small_ontology()
        hits = ontology.native_query(
            [NativeCondition("Namespace", "=", "molecular_function")]
        )
        assert len(hits) == 4

    def test_is_a_equality(self):
        ontology = small_ontology()
        hits = ontology.native_query(
            [NativeCondition("IsA", "=", "GO:0000002")]
        )
        assert {hit["GoID"] for hit in hits} == {"GO:0000003", "GO:0000004"}

    def test_name_contains(self):
        ontology = small_ontology()
        hits = ontology.native_query(
            [NativeCondition("Name", "contains", "BINDING")]
        )
        assert len(hits) == 3


class TestGenerator:
    def test_deterministic(self):
        a = GoGenerator(DeterministicRng(6)).generate(100)
        b = GoGenerator(DeterministicRng(6)).generate(100)
        assert a == b

    def test_generated_ontology_is_valid(self):
        terms = GoGenerator(DeterministicRng(7)).generate(250)
        ontology = GoOntology(terms)
        assert ontology.validate() == []

    def test_all_namespaces_rooted(self):
        terms = GoGenerator(DeterministicRng(8)).generate(100)
        ontology = GoOntology(terms)
        for namespace in NAMESPACES:
            assert len(ontology.roots(namespace)) == 1

    def test_some_multi_parent_terms(self):
        terms = GoGenerator(DeterministicRng(9)).generate(300)
        assert any(len(term.is_a) > 1 for term in terms)

    def test_some_obsolete_terms(self):
        terms = GoGenerator(DeterministicRng(10)).generate(500)
        assert any(term.obsolete for term in terms)
