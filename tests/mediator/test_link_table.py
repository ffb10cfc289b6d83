"""The link table: reconcile once per source version, replay per question.

Each link step's per-anchor validation (the reconciler's dangling,
obsolete and symbol checks) is filed as one row per anchor primary key
in a ``links`` entry of the mediator's artifact store, keyed on the
anchor and link sources' versions and the reconciliation policy.  A
question replays the rows in today's order, so pinned here:

(a) a warm table answers every catalog question exactly as a fresh
    federation does — gene ids, link lists and the full ordered list
    of reconciliation issues;
(b) concurrent questions against a cold table get the serial answers;
(c) mutations, re-registration, a policy change and a degraded symbol
    index all miss the table where they must;
(d) a warm table spares every per-id validation call.
"""

import dataclasses
import threading

import pytest

from repro import Annoda
from repro.core.annoda import AnnodaConfig
from repro.mediator import FederationPolicy
from repro.mediator.artifacts import ArtifactStore
from repro.mediator.reconcile import ReconciliationPolicy, Reconciler
from repro.questions.catalog import QuestionCatalog
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.sources.go.term import GoTerm
from repro.sources.omim.record import OmimRecord
from repro.wrappers import (
    GoWrapper,
    LocusLinkWrapper,
    OmimWrapper,
    PubmedLikeWrapper,
    SwissProtLikeWrapper,
)

#: The golden federation's corpus (tests/integration/golden).
SEED = 13
PARAMETERS = dict(loci=120, go_terms=80, omim_entries=50, conflict_rate=0.2)

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


def questions():
    catalog = QuestionCatalog()
    return {name: build(catalog) for name, build in QUESTIONS.items()}


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS)
    )


@pytest.fixture(scope="module")
def extra_stores(corpus):
    return (
        corpus.make_citation_store(count=60),
        corpus.make_protein_store(),
    )


def federation(corpus, extra_stores, go_wrapper=None, config=None,
               omim_wrapper=None, artifacts=None):
    """The five-source golden federation over ``corpus``."""
    annoda = Annoda(config=config)
    if artifacts is not None:
        annoda.mediator.artifacts = artifacts
    citations, proteins = extra_stores
    annoda.add_source(LocusLinkWrapper(corpus.locuslink))
    annoda.add_source(go_wrapper or GoWrapper(corpus.go))
    annoda.add_source(omim_wrapper or OmimWrapper(corpus.omim))
    annoda.add_source(PubmedLikeWrapper(citations))
    annoda.add_source(SwissProtLikeWrapper(proteins))
    return annoda


def answer(result):
    """Everything a table replay must reproduce exactly."""
    return {
        "gene_ids": result.gene_ids(),
        "links": [gene["_links"] for gene in result.genes],
        "issues": list(result.reconciliation.issues),
    }


def ask_all(annoda):
    return {
        name: answer(annoda.ask(question, use_cache=False))
        for name, question in questions().items()
    }


def links_stats(annoda):
    return annoda.mediator.artifacts.stats()["links"]


class TestWarmTableMatchesAFreshFederation:
    def test_every_catalog_question(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        cold = ask_all(annoda)
        warm = ask_all(annoda)
        assert links_stats(annoda)["hits"] > 0
        for name, question in questions().items():
            fresh = answer(
                federation(corpus, extra_stores).ask(
                    question, use_cache=False
                )
            )
            assert cold[name] == fresh, name
            assert warm[name] == fresh, name
            assert fresh["issues"] or name == "genes_under_term", name


class TestConcurrentColdTable:
    def test_six_threads_get_the_serial_answers(self, corpus, extra_stores):
        serial = ask_all(federation(corpus, extra_stores))
        annoda = federation(corpus, extra_stores)
        named = list(questions().items())
        start = threading.Barrier(len(named))
        answers = {}
        errors = []

        def run(name, question):
            try:
                start.wait(timeout=30)
                answers[name] = answer(annoda.ask(question, use_cache=False))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=item) for item in named
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert answers == serial
        # The rows the racing executions built were published, so a
        # second round replays them.
        assert ask_all(annoda) == serial


def replace_locus(store, locus_id, **changes):
    record = store.get(locus_id)
    store.remove(locus_id)
    store.add(dataclasses.replace(record, **changes))


class TestInvalidation:
    @pytest.fixture()
    def corpus(self):
        # Mutated in place: one per test.
        return AnnotationCorpus.generate(
            seed=SEED, parameters=CorpusParameters(**PARAMETERS)
        )

    @pytest.fixture()
    def extra_stores(self, corpus):
        return (
            corpus.make_citation_store(count=60),
            corpus.make_protein_store(),
        )

    def _assert_matches_fresh(self, annoda, corpus, extra_stores):
        misses = links_stats(annoda)["misses"]
        got = ask_all(annoda)
        assert links_stats(annoda)["misses"] > misses
        assert got == ask_all(federation(corpus, extra_stores))
        return got

    def test_locuslink_mutation(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        before = ask_all(annoda)
        store = corpus.locuslink
        victim = before["disease_genes"]["gene_ids"][0]
        replace_locus(
            store, victim, go_ids=["GO:9999999"], omim_ids=[], aliases=[],
            symbol="NEWSYM1",
        )
        after = self._assert_matches_fresh(annoda, corpus, extra_stores)
        assert victim not in after["disease_genes"]["gene_ids"]

    def test_go_mutation(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        ask_all(annoda)
        # A locus annotated with an unknown accession: adding the term
        # turns its dangling annotation into a valid one.
        store = corpus.locuslink
        locus_id = store.locus_ids()[0]
        replace_locus(store, locus_id, go_ids=["GO:7777777"])
        before = ask_all(annoda)
        keyword = "genes_by_annotation_keyword"
        assert locus_id not in before[keyword]["gene_ids"]
        corpus.go.add(
            GoTerm("GO:7777777", "late binding", "molecular_function")
        )
        after = self._assert_matches_fresh(annoda, corpus, extra_stores)
        assert locus_id in after[keyword]["gene_ids"]

    def test_omim_mutation(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        before = ask_all(annoda)
        record = corpus.locuslink.get(
            before["unannotated_genes"]["gene_ids"][0]
        )
        corpus.omim.add(
            OmimRecord(999990, "late disease", [record.symbol.lower()])
        )
        after = self._assert_matches_fresh(annoda, corpus, extra_stores)
        assert record.locus_id not in after["unannotated_genes"]["gene_ids"]
        assert record.locus_id in after["disease_genes"]["gene_ids"]

    def test_reregistration_drops_the_table(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        ask_all(annoda)
        assert annoda.mediator.artifacts.stats()["links"]["entries"] > 0
        annoda.remove_source("GO")
        assert all(
            kind != "links" or "GO" not in dict(versions)
            for kind, _identity, versions, _value in _entries(annoda)
        )
        annoda.add_source(GoWrapper(corpus.go))
        self._assert_matches_fresh(annoda, corpus, extra_stores)

    def test_a_source_moving_mid_execution_publishes_no_row(
        self, corpus, extra_stores
    ):
        annoda = federation(corpus, extra_stores)
        annoda.mediator.reconciler = MidFlightGoEdit(corpus.go)
        question = QuestionCatalog.figure5b()
        annoda.ask(question, use_cache=False)
        [(identity, versions, rows)] = [
            (identity, versions, value)
            for kind, identity, versions, value in _entries(annoda)
            if kind == "links" and identity[1] == "GO"
        ]
        # Every row was validated after GO moved past the table's
        # version, so none of them is valid at it.
        assert dict(versions)["GO"] < corpus.go.version
        assert rows == {}
        again = answer(annoda.ask(question, use_cache=False))
        assert again == answer(
            federation(corpus, extra_stores).ask(question, use_cache=False)
        )

    def test_a_policy_change_misses_the_table(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        ask_all(annoda)
        annoda.mediator.reconciler = Reconciler(ReconciliationPolicy.naive())
        misses = links_stats(annoda)["misses"]
        naive = ask_all(annoda)
        assert links_stats(annoda)["misses"] > misses
        fresh = federation(
            corpus,
            extra_stores,
            config=AnnodaConfig(reconciliation=ReconciliationPolicy.naive()),
        )
        assert naive == ask_all(fresh)
        assert naive != ask_all(federation(corpus, extra_stores))


def _entries(annoda):
    """``(kind, identity, versions, value)`` of every memory entry."""
    store = annoda.mediator.artifacts
    with store._lock:
        return [
            (kind, identity, versions, value)
            for (kind, identity), (versions, value) in store._entries.items()
        ]


class MidFlightGoEdit(Reconciler):
    """Adds a GO term the first time it validates annotations, so GO
    moves while the execution is still building rows."""

    def __init__(self, go_store):
        super().__init__()
        self.go_store = go_store
        self.edited = False

    def valid_annotation_ids(self, *args, **kwargs):
        if not self.edited:
            self.edited = True
            self.go_store.add(
                GoTerm("GO:6666666", "mid-flight term", "molecular_function")
            )
        return super().valid_annotation_ids(*args, **kwargs)


class NoSymbolIndexOmimWrapper(OmimWrapper):
    """OMIM whose full-vocabulary symbol-index fetch fails while
    ``down``; its link and enrichment fetches keep answering."""

    down = True

    def fetch(self, request):
        if self.down and request.purpose == "symbol-index":
            raise ConnectionError("symbol vocabulary unavailable")
        return super().fetch(request)


class TestDegradedSymbolIndex:
    def test_never_served_nor_stored(self, corpus, extra_stores):
        degrade = AnnodaConfig(
            federation=FederationPolicy(on_failure="degrade")
        )
        question = QuestionCatalog.disease_genes()
        flaky = NoSymbolIndexOmimWrapper(corpus.omim)
        # Three entries: a disease_genes execution touches the symbol
        # index, then the OMIM link table, then OMIM's enrichment index.
        annoda = federation(
            corpus, extra_stores, config=degrade, omim_wrapper=flaky,
            artifacts=ArtifactStore(max_entries=3),
        )
        degraded = answer(annoda.ask(question, use_cache=False))
        assert annoda.ask(question, use_cache=False).report.degraded == (
            "OMIM",
        )
        assert not any(
            kind == "links" and identity[4]
            for kind, identity, _versions, _value in _entries(annoda)
        )

        flaky.down = False
        misses = links_stats(annoda)["misses"]
        healthy = answer(annoda.ask(question, use_cache=False))
        assert links_stats(annoda)["misses"] == misses + 1
        assert healthy == answer(
            federation(corpus, extra_stores).ask(question, use_cache=False)
        )
        assert healthy["gene_ids"] != degraded["gene_ids"]

        # Evict the symbol index (the least recently used entry), so the
        # next execution has to rebuild it, and fail.
        annoda.mediator.artifacts.put("answer", "filler", (), None)
        flaky.down = True
        assert answer(annoda.ask(question, use_cache=False)) == degraded


class CountingGoWrapper(GoWrapper):
    calls = 0

    def exists(self, go_id):
        CountingGoWrapper.calls += 1
        return super().exists(go_id)

    def is_obsolete(self, go_id):
        CountingGoWrapper.calls += 1
        return super().is_obsolete(go_id)


class CountingReconciler(Reconciler):
    calls = 0

    def valid_annotation_ids(self, *args, **kwargs):
        CountingReconciler.calls += 1
        return super().valid_annotation_ids(*args, **kwargs)

    def valid_disease_ids(self, *args, **kwargs):
        CountingReconciler.calls += 1
        return super().valid_disease_ids(*args, **kwargs)

    def disease_ids_via_symbols(self, *args, **kwargs):
        CountingReconciler.calls += 1
        return super().disease_ids_via_symbols(*args, **kwargs)


class TestWarmTableSparesValidation:
    def test_second_pass_makes_no_validation_call(self, corpus, extra_stores):
        annoda = federation(
            corpus, extra_stores, go_wrapper=CountingGoWrapper(corpus.go)
        )
        annoda.mediator.reconciler = CountingReconciler()
        CountingGoWrapper.calls = CountingReconciler.calls = 0
        first = ask_all(annoda)
        assert CountingGoWrapper.calls > 0
        assert CountingReconciler.calls > 0
        CountingGoWrapper.calls = CountingReconciler.calls = 0
        assert ask_all(annoda) == first
        assert CountingGoWrapper.calls == 0
        assert CountingReconciler.calls == 0
