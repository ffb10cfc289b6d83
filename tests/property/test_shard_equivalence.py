"""Property test: sharding and replication never change an answer.

The tentpole guarantee of the shard grid — key-range partitions are
contiguous ranges of each store's canonical record order, so shard-
order concatenation reproduces the unsharded answer byte for byte,
and every replica serves the same extent, so failover placement never
matters either.  Two suites pin it down:

- every catalog question, on a fixed five-source federation, for
  every grid shape (shards in {1, 2, 4, 8}, replicas 2) — genes,
  gene ids and the rendered integrated view must be byte-identical,
  and the shard-independent execution stats must reconcile;
- random global queries over random small corpora (Hypothesis),
  sharded vs unsharded.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Annoda
from repro.core.annoda import AnnodaConfig
from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.decompose import Condition
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.shard import ShardedSource
from repro.wrappers import (
    GoWrapper,
    LocusLinkWrapper,
    OmimWrapper,
    PubmedLikeWrapper,
    SwissProtLikeWrapper,
)

SEED = 13
PARAMETERS = dict(loci=120, go_terms=80, omim_entries=50,
                  conflict_rate=0.2)

QUESTIONS = {
    "figure5b": lambda catalog: catalog.figure5b(),
    "disease_genes": lambda catalog: catalog.disease_genes(),
    "unannotated_genes": lambda catalog: catalog.unannotated_genes(),
    "genes_by_annotation_keyword": lambda catalog: (
        catalog.genes_by_annotation_keyword("binding")
    ),
    "genes_under_term": lambda catalog: (
        catalog.genes_under_term("GO:0000002")
    ),
    "cited_disease_genes": lambda catalog: catalog.cited_disease_genes(),
}

#: Execution-stats counters that must be identical on every grid shape
#: (everything except shard-local accounting: per-source fetch counts,
#: index/scan hits, shard_fans and replica_failovers legitimately vary
#: with the grid).
GRID_INDEPENDENT_STATS = (
    "rows_fetched",
    "residual_evaluations",
    "anchors_considered",
    "anchors_returned",
    "batched_fetches",
    "enrichment_cache_hits",
    "retries",
    "timeouts",
    "degraded_sources",
)


def build_federation(shards=1, replicas=1):
    annoda = Annoda.with_default_sources(
        seed=SEED,
        parameters=CorpusParameters(**PARAMETERS),
        config=AnnodaConfig(shards=shards, replicas=replicas),
    )
    annoda.add_source(
        PubmedLikeWrapper(annoda.corpus.make_citation_store(count=60))
    )
    annoda.add_source(
        SwissProtLikeWrapper(annoda.corpus.make_protein_store())
    )
    return annoda


@pytest.fixture(scope="module")
def baseline():
    """Unsharded answers, computed once — on a *fresh* federation per
    question, exactly like each grid run below, so per-execution cache
    stats compare like for like."""
    answers = {}
    for name, build in QUESTIONS.items():
        annoda = build_federation()
        result = annoda.ask(build(annoda.catalog))
        answers[name] = {
            "genes": result.genes,
            "gene_ids": result.gene_ids(),
            "view": annoda.render_integrated_view(result),
            "stats": {
                key: getattr(result.stats, key)
                for key in GRID_INDEPENDENT_STATS
            },
        }
    return answers


class TestCatalogEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(QUESTIONS))
    def test_sharded_replicated_answers_are_byte_identical(
        self, baseline, name, shards
    ):
        annoda = build_federation(shards=shards, replicas=2)
        result = annoda.ask(QUESTIONS[name](annoda.catalog))
        expected = baseline[name]
        assert result.gene_ids() == expected["gene_ids"]
        assert result.genes == expected["genes"]
        assert (
            annoda.render_integrated_view(result) == expected["view"]
        )
        for key in GRID_INDEPENDENT_STATS:
            assert getattr(result.stats, key) == expected["stats"][key], (
                f"stat {key!r} diverged on {name} at {shards} shard(s)"
            )
        assert result.report.ok
        if shards > 1:
            assert result.stats.shard_fans > 0


# -- random queries over random corpora (Hypothesis) ----------------------

anchor_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Species", "=", "Homo sapiens"),
            Condition("Species", "=", "Mus musculus"),
            Condition("GeneID", ">", 1200),
            Condition("Definition", "contains", "kinase"),
        ]
    ),
    max_size=2,
    unique=True,
)

go_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Aspect", "=", "molecular_function"),
            Condition("Title", "contains", "binding"),
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
                symbol_join=draw(st.booleans()),
            )
        )
    return GlobalQuery(
        anchor_source="LocusLink",
        conditions=tuple(draw(anchor_conditions)),
        links=tuple(links),
    )


@pytest.fixture(scope="module")
def random_corpora():
    return [
        AnnotationCorpus.generate(
            seed=seed,
            parameters=CorpusParameters(
                loci=60, go_terms=40, omim_entries=20, conflict_rate=0.3
            ),
        )
        for seed in (3, 17)
    ]


def _mediator(corpus, shards):
    mediator = Mediator()
    stores = [corpus.locuslink, corpus.go, corpus.omim]
    if shards > 1:
        stores = [ShardedSource(store, shards) for store in stores]
    mediator.register_wrapper(LocusLinkWrapper(stores[0]))
    mediator.register_wrapper(GoWrapper(stores[1]))
    mediator.register_wrapper(OmimWrapper(stores[2]))
    return mediator


class TestRandomQueryEquivalence:
    @given(
        query=queries(),
        corpus_index=st.integers(min_value=0, max_value=1),
        shards=st.sampled_from([2, 3, 4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_sharded_matches_unsharded(self, random_corpora, query,
                                       corpus_index, shards):
        corpus = random_corpora[corpus_index]
        flat = _mediator(corpus, 1).query(query, enrich_links=False)
        sharded = _mediator(corpus, shards).query(
            query, enrich_links=False
        )
        assert sharded.genes == flat.genes
        assert sharded.gene_ids() == flat.gene_ids()
