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
(d) a warm table spares every per-id validation call, and a warm pass
    builds no row at all;
(e) the ordered list of reconciliation issues, cold and warm, equals
    digests taken from the anchor-at-a-time replay this one replaced,
    for every catalog question, a question naming GO twice around an
    OMIM exclude, and figure5b with GO dark under a degrading policy
    (with and without link-fetch pruning, so GO degrades at enrichment
    and at its link step).
"""

import dataclasses
import hashlib
import json
import threading

import pytest

from repro import Annoda
from repro.core.annoda import AnnodaConfig
from repro.mediator import FederationPolicy, GlobalQuery, LinkConstraint
from repro.mediator.artifacts import ArtifactStore
from repro.mediator.executor import Executor
from repro.mediator.fetch import FlakyWrapper
from repro.mediator.plan import OptimizerOptions
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


def sha256(value):
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def issues_digest(result):
    """SHA-256 of the ordered reconciliation issues."""
    return sha256([
        (issue.kind, issue.anchor_id, issue.detail, issue.repaired)
        for issue in result.reconciliation.issues
    ])


def rows_digest(result):
    """SHA-256 of the gene rows in their own key order, so the order
    of each row's ``_links`` sources is pinned too."""
    return sha256(result.genes)


#: Question -> SHA-256 of its ordered issues (:func:`issues_digest`).
PINNED_ISSUES = {
    "figure5b": (
        "ab868b582e9e09330c0a5dc9869be76d0674ac0c41906848a1ee9424bacdf481"
    ),
    "disease_genes": (
        "6277e541c76124bd75b932bb6a77c40814cd8b64ab0d02fa8a258129db6a56d9"
    ),
    "unannotated_genes": (
        "e6accc1c30bd03cb5a09c0e496bcf05d8a3a0c6deb22e5c71f03d22e9cd51c7f"
    ),
    "genes_by_annotation_keyword": (
        "d1386e83ce603f17b6738f1bab3e5639bd1c55673389735bf76fde4a28d91ab1"
    ),
    "genes_under_term": (
        "d1386e83ce603f17b6738f1bab3e5639bd1c55673389735bf76fde4a28d91ab1"
    ),
    "cited_disease_genes": (
        "e00bb0969ad3ce1e480ccdc4a1f6487fbf3abdd879f9b8df50a20456538a6a20"
    ),
}

GO_LINK = LinkConstraint("GO", "include", via="AnnotationID")

#: GO named twice around an OMIM exclude: GO's conflicts are raised
#: once per anchor, and its ids merge into one ``_links`` entry.
GO_TWICE = GlobalQuery(
    anchor_source="LocusLink",
    links=(
        GO_LINK,
        LinkConstraint("OMIM", "exclude", via="DiseaseID"),
        GO_LINK,
    ),
)

#: ``(genes, issues digest, rows digest)`` of GO_TWICE.
PINNED_GO_TWICE = (
    54,
    "d9f876b32be314a9c69f1fc03d21cab887166ec285fb16c940074483a8002bad",
    "f67753e3eea8bc46e746965fc9d3e242e94a51f1091c147061b6ac4b38be6c1d",
)

#: Link-fetch pruning -> ``(genes, issues digest, rows digest)`` of
#: figure5b with GO dark.  Pruned, GO's link step reads only the anchor
#: ids and GO degrades at enrichment; unpruned, its link fetch fails,
#: so the step is skipped.
PINNED_GO_DARK = {
    True: (
        48,
        "ab868b582e9e09330c0a5dc9869be76d0674ac0c41906848a1ee9424bacdf481",
        "5af73bcf8bb0fde72c1fa72c582f0a18a01e2c55152658859e8658fe4f96c7b6",
    ),
    False: (
        69,
        "6277e541c76124bd75b932bb6a77c40814cd8b64ab0d02fa8a258129db6a56d9",
        "5583ae169d20bcef9d68821ad1fdd2c44c48ef063a6068afcd38d2fdf928521c",
    ),
}


class TestOrderedConflicts:
    def test_every_catalog_question(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        for _round in ("cold", "warm"):
            for name, question in questions().items():
                result = annoda.ask(question, use_cache=False)
                assert issues_digest(result) == PINNED_ISSUES[name], name
        assert links_stats(annoda)["hits"] > 0

    def test_go_twice_around_an_omim_exclude(self, corpus, extra_stores):
        annoda = federation(corpus, extra_stores)
        for _round in ("cold", "warm"):
            result = annoda.ask(GO_TWICE, use_cache=False)
            assert (
                len(result), issues_digest(result), rows_digest(result)
            ) == PINNED_GO_TWICE

    @pytest.mark.parametrize("pruning", [True, False])
    def test_figure5b_with_go_dark(self, corpus, extra_stores, pruning):
        config = AnnodaConfig(
            optimizer=OptimizerOptions(enable_pruning=pruning),
            federation=FederationPolicy(on_failure="degrade"),
        )
        dark = FlakyWrapper(GoWrapper(corpus.go), blackout=True)
        annoda = federation(
            corpus, extra_stores, go_wrapper=dark, config=config
        )
        for _round in ("cold", "warm"):
            result = annoda.ask(QuestionCatalog.figure5b(), use_cache=False)
            assert result.report.degraded == ("GO",)
            assert (
                len(result), issues_digest(result), rows_digest(result)
            ) == PINNED_GO_DARK[pruning]


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

    def test_second_pass_builds_no_row(
        self, corpus, extra_stores, monkeypatch
    ):
        """Every step keeps a table, the PubMed link (which validates
        nothing) too, so a warm pass only replays rows."""
        built = []
        row_builder = Executor._row_builder

        def counting_row_builder(executor, link, *args):
            build_row, fields = row_builder(executor, link, *args)

            def counting_build_row(record):
                built.append(link.source_name)
                return build_row(record)

            return counting_build_row, fields

        monkeypatch.setattr(Executor, "_row_builder", counting_row_builder)
        annoda = federation(corpus, extra_stores)
        first = ask_all(annoda)
        assert set(built) == {"GO", "OMIM", "PubMed"}
        built.clear()
        assert ask_all(annoda) == first
        assert built == []
