"""Transform rules added at run time reach every answer.

Gene rows and enrichment details are translated records, so what the
mediator caches from them — whole answers and each link source's
enrichment index — is keyed on the transform rules as well as on the
source versions.  The mapping module's compiled translation plan is
rebuilt when a rule changes, and names its transforms instead of
holding them.
"""

import pytest

from repro import Annoda
from repro.sources.corpus import CorpusParameters

#: The golden federation's corpus.
PARAMETERS = dict(loci=120, go_terms=80, omim_entries=50, conflict_rate=0.2)


@pytest.fixture()
def annoda():
    return Annoda.with_default_sources(
        seed=13, parameters=CorpusParameters(**PARAMETERS)
    )


def symbols(result):
    return [gene["GeneSymbol"] for gene in result.genes]


def go_titles(result):
    return {
        go_id: dict(pairs)["Title"]
        for go_id, pairs in result.view.details["GO"].items()
    }


class TestRuleChangesReachCachedValues:
    def test_cached_answer_is_not_served_after_a_rule_change(self, annoda):
        question = annoda.catalog.figure5b()
        before = annoda.ask(question)
        assert "SPEA95" in symbols(before)
        annoda.mediator.mapping_module.add_transform_rule(
            "LocusLink", "GeneSymbol", "lowercase"
        )
        after = annoda.ask(question)
        assert not after.from_result_cache
        assert symbols(after) == [symbol.lower() for symbol in symbols(before)]
        assert annoda.ask(question) is after

    def test_enrichment_details_follow_a_rule_change(self, annoda):
        question = annoda.catalog.figure5b()
        before = go_titles(annoda.ask(question, use_cache=False))
        assert any(title != title.upper() for title in before.values())
        annoda.mediator.mapping_module.add_transform_rule(
            "GO", "Title", "uppercase"
        )
        after = go_titles(annoda.ask(question, use_cache=False))
        assert after == {
            go_id: title.upper() for go_id, title in before.items()
        }


class TestCompiledPlan:
    def test_a_late_rule_reaches_the_next_uncached_rows(self, annoda):
        question = annoda.catalog.disease_genes()
        first = annoda.ask(question, use_cache=False)
        module = annoda.mediator.mapping_module
        module.add_transform_rule("LocusLink", "Species", "uppercase")
        second = annoda.ask(question, use_cache=False)
        assert [gene["Species"] for gene in second.genes] == [
            gene["Species"].upper() for gene in first.genes
        ]
        assert [gene["GeneID"] for gene in second.genes] == (
            first.gene_ids()
        )

    def test_a_replaced_transform_function_is_used(self, annoda):
        question = annoda.catalog.disease_genes()
        module = annoda.mediator.mapping_module
        module.add_transform_rule("LocusLink", "GeneSymbol", "lowercase")
        first = annoda.ask(question, use_cache=False)
        module.transforms.register(
            "lowercase", lambda value: "x-" + str(value).lower()
        )
        second = annoda.ask(question, use_cache=False)
        assert symbols(second) == ["x-" + symbol for symbol in symbols(first)]

    def test_unregistering_drops_the_rules_and_the_plan(self, annoda):
        module = annoda.mediator.mapping_module
        wrapper = annoda.mediator.wrapper("OMIM")
        module.add_transform_rule("OMIM", "Title", "lowercase")
        record = next(iter(wrapper.source.records()))
        assert module.translate_record("OMIM", record, wrapper)[
            "Title"
        ] == record["Title"].lower()
        annoda.remove_source("OMIM")
        annoda.add_source(wrapper)
        assert module.transform_rules("OMIM") == ()
        assert module.translate_record("OMIM", record, wrapper)[
            "Title"
        ] == record["Title"]
