"""Property tests: the indexed/batched fetch path is invisible.

Two layers, mirroring ``test_executor_equivalence``:

1. **Source level** — for random native condition lists (equality,
   batched ``in`` with mixed-type candidates, range/substring
   residuals), ``native_query`` answers with the equality index on and
   off both equal an independent reference, a plain filter over a
   fresh ``records()`` list, *including order*, while loci are removed
   from and added back to the store between queries.
2. **Mediator level** — for random semijoin-shaped queries, the
   batched ``in`` anchor fetch and the per-id (N+1) equality loop
   produce the same integrated answer, enriched links included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mediator import (
    GlobalQuery,
    LinkConstraint,
    Mediator,
    OptimizerOptions,
)
from repro.mediator.artifacts import ArtifactStore
from repro.mediator.decompose import Condition
from repro.mediator.executor import Executor
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition, _evaluate
from repro.wrappers import default_wrappers

CORPUS = AnnotationCorpus.generate(
    seed=67,
    parameters=CorpusParameters(loci=70, go_terms=45, omim_entries=25),
)
STORE = CORPUS.locuslink
LOCUS_IDS = STORE.locus_ids()
SYMBOLS = sorted(
    {record.symbol for record in STORE.all_records()}
)[:20] + ["NO-SUCH-SYMBOL"]
GO_IDS = sorted(
    {go_id for record in STORE.all_records() for go_id in record.go_ids}
)[:20] + ["GO:9999999"]
OMIM_IDS = sorted(
    {mim for record in STORE.all_records() for mim in record.omim_ids}
)[:20] + [999999]

#: Probe values for the integer LocusID key: present ids, their string
#: spellings (coerced equality must keep working through the index),
#: zero-padded spellings, and misses.
locus_values = st.one_of(
    st.sampled_from(LOCUS_IDS),
    st.sampled_from([str(locus_id) for locus_id in LOCUS_IDS]),
    st.sampled_from(["0" + str(locus_id) for locus_id in LOCUS_IDS]),
    st.integers(min_value=0, max_value=3000),
    st.booleans(),
)

omim_values = st.one_of(
    st.sampled_from(OMIM_IDS),
    st.sampled_from([str(mim) for mim in OMIM_IDS]),
)

equality_conditions = st.one_of(
    st.builds(lambda v: NativeCondition("LocusID", "=", v), locus_values),
    st.builds(
        lambda v: NativeCondition("Symbol", "=", v),
        st.sampled_from(SYMBOLS),
    ),
    st.builds(
        lambda v: NativeCondition("Organism", "=", v),
        st.sampled_from(
            ["Homo sapiens", "Mus musculus", "homo sapiens", ""]
        ),
    ),
    st.builds(
        lambda v: NativeCondition("GoIDs", "=", v), st.sampled_from(GO_IDS)
    ),
    st.builds(lambda v: NativeCondition("OmimIDs", "=", v), omim_values),
)

in_conditions = st.builds(
    lambda values: NativeCondition("LocusID", "in", tuple(values)),
    st.lists(locus_values, max_size=6),
)

#: Conditions the index cannot drive; they ride along as secondary
#: filters over index hits (or as the whole scan predicate).
residual_conditions = st.sampled_from(
    [
        NativeCondition("LocusID", ">", 1200),
        NativeCondition("LocusID", "<=", 1500),
        NativeCondition("Description", "contains", "kinase"),
        NativeCondition("Description", "contains", "protein"),
        NativeCondition("Symbol", "like", "A%"),
    ]
)


@st.composite
def condition_lists(draw):
    conditions = [
        draw(st.one_of(equality_conditions, in_conditions))
    ]
    conditions.extend(draw(st.lists(residual_conditions, max_size=2)))
    draw(st.randoms(use_true_random=False)).shuffle(conditions)
    return conditions


def _reference(conditions):
    """The independent answer: a plain filter over a fresh
    ``records()`` list — no extent, no index."""
    return [
        record
        for record in STORE.records()
        if all(
            _evaluate(record.get(condition.field), condition)
            for condition in conditions
        )
    ]


#: Queries interleaved with store churn: before each condition list,
#: the drawn loci are toggled out of (or back into) the store through
#: ``remove``/``add``, so successive queries run at new versions.
churned_queries = st.lists(
    st.tuples(
        condition_lists(), st.lists(st.sampled_from(LOCUS_IDS), max_size=2)
    ),
    min_size=1,
    max_size=4,
)


class TestIndexedScanEquivalence:
    @given(churned_queries)
    @settings(max_examples=150, deadline=None)
    def test_index_on_equals_index_off(self, steps):
        removed = {}
        try:
            for conditions, toggled in steps:
                for locus_id in toggled:
                    if locus_id in removed:
                        STORE.add(removed.pop(locus_id))
                    else:
                        removed[locus_id] = STORE.get(locus_id)
                        STORE.remove(locus_id)
                expected = _reference(conditions)
                for use_index in (True, False):
                    hits = STORE.native_query(conditions, use_index=use_index)
                    # Full list equality: same records, same order.
                    assert [dict(record) for record in hits] == expected
        finally:
            for record in removed.values():
                STORE.add(record)

    @given(st.lists(locus_values, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_in_equals_union_of_equals(self, values):
        batched = STORE.native_query(
            [NativeCondition("LocusID", "in", tuple(values))],
            use_index=True,
        )
        singly = []
        seen = set()
        for value in values:
            for record in STORE.native_query(
                [NativeCondition("LocusID", "=", value)], use_index=False
            ):
                if record["LocusID"] not in seen:
                    seen.add(record["LocusID"])
                    singly.append(record)
        singly.sort(key=lambda record: record["LocusID"])
        assert batched == singly


@pytest.fixture(scope="module")
def semijoin_mediator():
    mediator = Mediator(
        optimizer_options=OptimizerOptions(enable_semijoin=True)
    )
    for wrapper in default_wrappers(CORPUS):
        mediator.register_wrapper(wrapper)
    return mediator


go_needles = st.sampled_from(
    ["kinase", "binding", "transport", "receptor", "zz-nothing"]
)
anchor_condition_lists = st.lists(
    st.sampled_from(
        [
            Condition("Species", "=", "Homo sapiens"),
            Condition("GeneID", ">", 1200),
            Condition("Definition", "contains", "protein"),
        ]
    ),
    max_size=1,
)


class TestBatchedFetchEquivalence:
    @given(needle=go_needles, anchor_conditions=anchor_condition_lists)
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_per_id(
        self, semijoin_mediator, needle, anchor_conditions
    ):
        query = GlobalQuery(
            anchor_source="LocusLink",
            conditions=tuple(anchor_conditions),
            links=(
                LinkConstraint(
                    "GO",
                    "include",
                    via="AnnotationID",
                    conditions=(Condition("Title", "contains", needle),),
                ),
            ),
        )
        plan = semijoin_mediator.plan(query)
        runs = {}
        for batch_fetch in (True, False):
            executor = Executor(
                semijoin_mediator._wrappers,
                semijoin_mediator.mapping_module,
                semijoin_mediator.reconciler,
                artifacts=ArtifactStore(),
                batch_fetch=batch_fetch,
            )
            runs[batch_fetch] = executor.execute(
                plan, query, enrich_links=True
            )
        # Whole translated answer, matched link ids included.
        assert runs[True].genes == runs[False].genes
