"""Cache freshness across source re-registration.

Result and fetch-path caches are keyed on ``(source name, version)``.
A *different* store re-registered under the same name starts from the
same version counter, so its keys collide with the old store's — the
mediator must purge every cache touching a source when it is
unregistered, or a repeat query silently answers from the replaced
federation (the bug this file pinned down).
"""

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.decompose import Condition
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.wrappers import default_wrappers

QUERY = GlobalQuery(
    anchor_source="LocusLink",
    links=(
        LinkConstraint(
            "GO",
            "include",
            via="AnnotationID",
            conditions=(Condition("Aspect", "=", "molecular_function"),),
        ),
    ),
)


def _entries(mediator, kind):
    """How many ``kind`` entries the mediator's cache holds."""
    return mediator.artifacts.stats()[kind]["entries"]


def _fresh_corpus(seed):
    """A corpus no other test has touched: its stores' version
    counters are pristine, so two same-shaped corpora genuinely
    collide on ``(name, version)`` cache keys."""
    return AnnotationCorpus.generate(
        seed=seed,
        parameters=CorpusParameters(loci=150, go_terms=90,
                                    omim_entries=45),
    )


def _other_corpus():
    return _fresh_corpus(47)


def _ground_truth(corpus):
    """What a fresh, never-cached federation over ``corpus`` answers."""
    mediator = Mediator()
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    return mediator.query(QUERY, use_cache=False)


def _snapshot(result):
    return (
        tuple(result.gene_ids()),
        tuple(
            tuple(sorted(gene.get("Symbol", ""))) for gene in result.genes
        ),
    )


class TestReRegistrationFreshness:
    def test_replacing_a_source_invalidates_cached_results(self):
        corpus = _fresh_corpus(13)
        other = _other_corpus()
        mediator = Mediator()
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)

        first = mediator.query(QUERY)
        assert mediator.query(QUERY) is first  # cached

        # Swap every source for the other corpus's stores.  The new
        # wrappers start at the same version counters, so without the
        # unregistration purge the old cache keys collide.
        replacements = default_wrappers(other)
        for old, new in zip(list(mediator.sources()), replacements):
            replacement = {w.name: w for w in replacements}[old]
            assert mediator.wrapper(old).version == replacement.version
        for name in list(mediator.sources()):
            mediator.unregister_source(name)
        for wrapper in replacements:
            mediator.register_wrapper(wrapper)

        second = mediator.query(QUERY)
        assert second is not first
        assert _snapshot(second) == _snapshot(_ground_truth(other))

    def test_replacing_one_source_keeps_other_results_evicted_only_if_involved(  # noqa: E501
        self
    ):
        corpus = _fresh_corpus(13)
        other = _other_corpus()
        mediator = Mediator()
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)
        first = mediator.query(QUERY)

        # Replace only GO; the cached result federates GO, so it must
        # not survive.
        go_replacement = {
            w.name: w for w in default_wrappers(other)
        }["GO"]
        mediator.unregister_source("GO")
        assert not _entries(mediator, "answer")
        mediator.register_wrapper(go_replacement)
        second = mediator.query(QUERY)
        assert second is not first

    def test_enrichment_indexes_do_not_leak_across_replacement(
        self
    ):
        corpus = _fresh_corpus(13)
        other = _other_corpus()
        mediator = Mediator()
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)
        mediator.query(QUERY)  # warms the enrichment/symbol caches
        # GO is the query's only link source: every enrichment entry
        # is built from it.
        assert _entries(mediator, "enrichment") > 0
        mediator.unregister_source("GO")
        assert not _entries(mediator, "enrichment")
        mediator.register_wrapper(
            {w.name: w for w in default_wrappers(other)}["GO"]
        )
        result = mediator.query(QUERY)
        # The rebuilt enrichment index serves the *new* ontology.
        go_rows = result.report.sources["GO"].rows
        assert go_rows >= 0  # accounting present for the fresh source
        assert result.report.ok

    def test_reregistering_from_persisted_snapshot_serves_fresh_results(
        self, tmp_path
    ):
        """Regression: swapping a live federation for one reloaded from
        a persisted snapshot (adopted indexes and all) must answer from
        the snapshot's data, not the evicted caches — and the adopted
        indexes mean the swap costs zero rebuilds."""
        from repro.sources.persistence import (
            load_stores,
            save_corpus,
            wrappers_for,
        )

        corpus = _fresh_corpus(13)
        other = _other_corpus()
        mediator = Mediator()
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)
        first = mediator.query(QUERY)

        save_corpus(other, tmp_path)
        loaded = load_stores(tmp_path)
        for name in list(mediator.sources()):
            mediator.unregister_source(name)
        for wrapper in wrappers_for(loaded):
            mediator.register_wrapper(wrapper)

        second = mediator.query(QUERY)
        assert second is not first
        assert _snapshot(second) == _snapshot(_ground_truth(other))
        # Every equality probe the query ran was served by an adopted
        # index — the cold start rebuilt nothing.
        assert (
            sum(
                store.fetch_stats()["index_builds"]
                for store in loaded.values()
            )
            == 0
        )
