"""Property test: every optimizer configuration answers every query
identically.

Random global queries (conditions, link modes, symbol/reverse joins)
run against five differently-configured mediators over the same
five-source federation; the answer sets must always agree.  This is
the strongest guard on the executor: pushdown, pruning, ordering and
semijoin are pure optimizations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mediator import (
    GlobalQuery,
    LinkConstraint,
    Mediator,
    OptimizerOptions,
)
from repro.mediator.decompose import Condition
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.wrappers import SwissProtLikeWrapper, default_wrappers

CONFIGS = {
    "default": OptimizerOptions(),
    "no-pushdown": OptimizerOptions(enable_pushdown=False),
    "no-pruning": OptimizerOptions(enable_pruning=False),
    "bare": OptimizerOptions(
        enable_pushdown=False,
        enable_pruning=False,
        enable_ordering=False,
    ),
    "semijoin": OptimizerOptions(enable_semijoin=True),
}


@pytest.fixture(scope="module")
def mediators():
    corpus = AnnotationCorpus.generate(
        seed=61,
        parameters=CorpusParameters(
            loci=80, go_terms=50, omim_entries=25, conflict_rate=0.3
        ),
    )
    proteins = corpus.make_protein_store(coverage=0.5)
    built = {}
    for name, options in CONFIGS.items():
        mediator = Mediator(optimizer_options=options)
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)
        mediator.register_wrapper(SwissProtLikeWrapper(proteins))
        built[name] = mediator
    return built


anchor_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Species", "=", "Homo sapiens"),
            Condition("Species", "=", "Mus musculus"),
            Condition("GeneID", ">", 1200),
            Condition("GeneID", "<=", 1500),
            Condition("Definition", "contains", "kinase"),
            Condition("Definition", "contains", "protein"),
        ]
    ),
    max_size=2,
    unique=True,
)

go_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Aspect", "=", "molecular_function"),
            Condition("Title", "contains", "kinase"),
            Condition("Title", "contains", "binding"),
            Condition("Obsolete", "=", False),
        ]
    ),
    max_size=2,
    unique=True,
)

omim_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Inheritance", "=", "autosomal dominant"),
            Condition("Title", "contains", "A"),
        ]
    ),
    max_size=1,
)

protein_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Keyword", "=", "Kinase"),
            Condition("SequenceLength", ">=", 500),
        ]
    ),
    max_size=1,
)

modes = st.sampled_from(["include", "exclude"])


@st.composite
def queries(draw):
    links = []
    if draw(st.booleans()):
        links.append(
            LinkConstraint(
                "GO",
                draw(modes),
                via="AnnotationID",
                conditions=tuple(draw(go_conditions)),
            )
        )
    if draw(st.booleans()):
        links.append(
            LinkConstraint(
                "OMIM",
                draw(modes),
                via="DiseaseID",
                conditions=tuple(draw(omim_conditions)),
                symbol_join=draw(st.booleans()),
            )
        )
    if draw(st.booleans()):
        links.append(
            LinkConstraint(
                "SwissProt",
                draw(modes),
                via="ProteinID",
                conditions=tuple(draw(protein_conditions)),
                symbol_join=draw(st.booleans()),
                reverse_join=True,
            )
        )
    return GlobalQuery(
        anchor_source="LocusLink",
        conditions=tuple(draw(anchor_conditions)),
        links=tuple(links),
    )


class TestOptimizerEquivalence:
    @given(queries())
    @settings(max_examples=40, deadline=None)
    def test_all_configs_agree(self, mediators, query):
        answers = {
            name: frozenset(
                mediator.query(query, enrich_links=False).gene_ids()
            )
            for name, mediator in mediators.items()
        }
        reference = answers["bare"]
        for name, answer in answers.items():
            assert answer == reference, (
                f"config {name!r} diverged on:\n{query.render()}"
            )

    @given(queries())
    @settings(max_examples=25, deadline=None)
    def test_optimized_never_fetches_more(self, mediators, query):
        optimized = mediators["default"].query(query, enrich_links=False)
        bare = mediators["bare"].query(query, enrich_links=False)
        assert (
            optimized.report.counters["rows"]
            <= bare.report.counters["rows"]
        )
