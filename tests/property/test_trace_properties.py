"""Property tests for the query flight recorder.

Three invariants, pinned under randomized inputs:

1. *Nesting*: under a deterministic fake clock, every child span's
   interval lies strictly inside its parent's, for arbitrary tree
   shapes.
2. *Well-formedness under failure*: every span a traced query opens is
   closed exactly once — even when a fault-injected wrapper raises or
   the federation degrades mid-query.
3. *Reconciliation with the report*: summing span counters over the
   trace reproduces every registered counter of the execution's
   :class:`ExecutionReport`, for random queries over a five-source
   federation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mediator import (
    FederationPolicy,
    FlakyWrapper,
    GlobalQuery,
    LinkConstraint,
    Mediator,
)
from repro.mediator.decompose import Condition
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.trace import METRICS, TraceError, TraceRecorder, counter_totals
from repro.util.clock import FakeClock
from repro.util.errors import IntegrationError
from repro.wrappers import SwissProtLikeWrapper, default_wrappers

# -- 1. nesting ---------------------------------------------------------------

tree_shapes = st.recursive(
    st.just([]),
    lambda children: st.lists(children, max_size=3),
    max_leaves=12,
)


class TestNesting:
    @given(tree_shapes)
    @settings(max_examples=60, deadline=None)
    def test_children_nest_strictly_within_parents(self, shape):
        recorder = TraceRecorder(clock=FakeClock(tick=1.0))

        def build(children):
            with recorder.span("node"):
                for grandchildren in children:
                    build(grandchildren)

        build(shape)
        root = recorder.root
        assert root is not None
        for parent in root.walk():
            for child in parent.children:
                assert parent.start < child.start
                assert child.end < parent.end
        # The tick clock also makes sibling intervals disjoint and
        # ordered by sequence.
        for parent in root.walk():
            siblings = parent.children
            for earlier, later in zip(siblings, siblings[1:]):
                assert earlier.end < later.start


# -- 2. exactly-once closing under failure ------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    return AnnotationCorpus.generate(
        seed=47,
        parameters=CorpusParameters(
            loci=60, go_terms=40, omim_entries=20, conflict_rate=0.2
        ),
    )


FAILING_QUERY = GlobalQuery(
    anchor_source="LocusLink",
    links=(
        LinkConstraint(
            "GO",
            "include",
            via="AnnotationID",
            # Conditioned link: the GO fetch actually runs (and fails).
            conditions=(Condition("Aspect", "=", "molecular_function"),),
        ),
        LinkConstraint("OMIM", "exclude", via="DiseaseID"),
    ),
)


class TestExactlyOnceClosing:
    @given(
        error_rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        degrade=st.booleans(),
        fault_seed=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=16, deadline=None)
    def test_every_span_closes_exactly_once(
        self, small_corpus, error_rate, degrade, fault_seed
    ):
        policy = FederationPolicy(
            max_workers=4,
            on_failure="degrade" if degrade else "raise",
        )
        mediator = Mediator(federation=policy)
        locuslink, go, omim = default_wrappers(small_corpus)
        mediator.register_wrapper(locuslink)
        mediator.register_wrapper(
            FlakyWrapper(go, error_rate=error_rate, seed=fault_seed)
        )
        mediator.register_wrapper(omim)

        recorder = TraceRecorder(clock=FakeClock(tick=1.0))
        try:
            mediator.query(
                FAILING_QUERY, use_cache=False, recorder=recorder
            )
        except IntegrationError:
            assert not degrade
        root = recorder.root
        assert root is not None
        for span in root.walk():
            assert span.closed, f"span {span.name!r} never closed"
            with pytest.raises(TraceError):
                recorder.close_span(span)
            if span.status == "error":
                assert span.error


# -- 3. span counters reconcile with the execution report ---------------------


@pytest.fixture(scope="module")
def federation():
    corpus = AnnotationCorpus.generate(
        seed=61,
        parameters=CorpusParameters(
            loci=80, go_terms=50, omim_entries=25, conflict_rate=0.3
        ),
    )
    mediator = Mediator()
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    mediator.register_wrapper(
        SwissProtLikeWrapper(corpus.make_protein_store(coverage=0.5))
    )
    return mediator


go_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Aspect", "=", "molecular_function"),
            Condition("Title", "contains", "binding"),
        ]
    ),
    max_size=1,
)


@st.composite
def queries(draw):
    links = []
    if draw(st.booleans()):
        links.append(
            LinkConstraint(
                "GO",
                draw(st.sampled_from(["include", "exclude"])),
                via="AnnotationID",
                conditions=tuple(draw(go_conditions)),
            )
        )
    if draw(st.booleans()):
        links.append(
            LinkConstraint(
                "OMIM",
                draw(st.sampled_from(["include", "exclude"])),
                via="DiseaseID",
                symbol_join=draw(st.booleans()),
            )
        )
    if draw(st.booleans()):
        links.append(
            LinkConstraint(
                "SwissProt",
                "include",
                via="ProteinID",
                reverse_join=True,
            )
        )
    return GlobalQuery(
        anchor_source="LocusLink",
        conditions=tuple(
            draw(
                st.lists(
                    st.sampled_from(
                        [
                            Condition("Species", "=", "Homo sapiens"),
                            Condition(
                                "Definition", "contains", "protein"
                            ),
                        ]
                    ),
                    max_size=1,
                )
            )
        ),
        links=tuple(links),
    )


class TestCountersReconcile:
    @given(queries(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_span_counter_totals_equal_execution_stats(
        self, federation, query, enrich
    ):
        result = federation.query(
            query,
            enrich_links=enrich,
            use_cache=False,
            recorder=TraceRecorder(clock=FakeClock(tick=1.0)),
        )
        totals = counter_totals(result.trace)
        counters = result.report.counters
        assert list(counters) == METRICS.names()
        assert counters["conflicts"] == result.reconciliation.count()
        assert counters["repaired"] == (
            result.reconciliation.repaired_count()
        )
        for name, value in counters.items():
            assert totals.get(name, 0) == value, (
                f"counter {name!r}: trace total {totals.get(name, 0)} "
                f"!= report {value} for\n{query.render()}"
            )
