"""Per-answer fetch-path counters count the answer's own work.

``index_hits``, ``scan_fetches``, ``indexes_rebuilt``,
``indexes_adopted`` and ``replica_failovers`` of one answer are summed
from the request-scoped tallies its own fetches carry, so executions
running side by side on one mediator never count each other's native
queries or failovers.  Pinned here: the six catalog questions asked
concurrently report exactly the counters they report asked one after
the other.
"""

import threading

from repro.mediator import FlakyWrapper, Mediator
from repro.mediator.fetch import FederatedFetcher, FetchRequest
from repro.questions.catalog import QuestionCatalog
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.wrappers import (
    GoWrapper,
    LocusLinkWrapper,
    OmimWrapper,
    PubmedLikeWrapper,
)

COUNTERS = (
    "index_hits",
    "scan_fetches",
    "indexes_rebuilt",
    "indexes_adopted",
    "replica_failovers",
)

#: Seconds every anchor fetch waits before it runs, so the concurrent
#: executions' fetches overlap.
ANCHOR_LATENCY = 0.05


def catalog_queries():
    catalog = QuestionCatalog()
    questions = [
        catalog.figure5b(),
        catalog.disease_genes(),
        catalog.unannotated_genes(),
        catalog.genes_by_annotation_keyword("binding"),
        catalog.genes_under_term("GO:0000002"),
        catalog.cited_disease_genes(),
    ]
    return [question.to_global_query() for question in questions]


def build_mediator():
    """The catalog federation, with a slow LocusLink and an OMIM replica
    set whose primary is down, so every OMIM fetch fails over once."""
    corpus = AnnotationCorpus.generate(
        seed=7,
        parameters=CorpusParameters(
            loci=120, go_terms=80, omim_entries=50, conflict_rate=0.2
        ),
    )
    mediator = Mediator()
    mediator.register_wrapper(
        FlakyWrapper(
            LocusLinkWrapper(corpus.locuslink), latency=ANCHOR_LATENCY
        )
    )
    mediator.register_wrapper(GoWrapper(corpus.go))
    mediator.register_replicas(
        [
            FlakyWrapper(OmimWrapper(corpus.omim), blackout=True),
            OmimWrapper(corpus.omim),
        ]
    )
    mediator.register_wrapper(
        PubmedLikeWrapper(corpus.make_citation_store(count=60))
    )
    return mediator


def counters(result):
    return {name: result.report.counters[name] for name in COUNTERS}


def test_concurrent_answers_count_only_their_own_fetches():
    mediator = build_mediator()
    queries = catalog_queries()
    # Warm every shared cache first: the symbol index build and the
    # enrichment fetches then do the same work in both rounds.
    for query in queries:
        mediator.query(query, use_cache=False)
    serial = [
        counters(mediator.query(query, use_cache=False))
        for query in queries
    ]
    assert sum(item["index_hits"] + item["scan_fetches"] for item in serial)
    assert sum(item["replica_failovers"] for item in serial)

    start = threading.Barrier(len(queries))
    concurrent = [None] * len(queries)
    errors = []

    def ask(position):
        try:
            start.wait(timeout=30)
            result = mediator.query(queries[position], use_cache=False)
            concurrent[position] = counters(result)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=ask, args=(position,))
        for position in range(len(queries))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert concurrent == serial


def test_a_reply_carries_its_own_fetch_tally(corpus):
    wrapper = LocusLinkWrapper(corpus.locuslink)
    fetcher = FederatedFetcher()
    symbol = corpus.locuslink.records()[0]["Symbol"]
    replies = fetcher.fetch_all(
        [
            (wrapper, FetchRequest.where(("Symbol", "=", symbol))),
            (wrapper, FetchRequest()),
        ]
    )
    fetcher.close()
    assert [reply.index_hits for reply in replies] == [1, 0]
    assert [reply.scan_queries for reply in replies] == [0, 1]
    assert all(reply.tally["replica_failovers"] == 0 for reply in replies)
