"""The integrated answer's gene rows and OEM view are built on first
read, not inside ``ask``.

Three contracts pinned here, for the rows and for the view:

1. **Same rows, same view** — for every catalog question (and, for the
   rows, one question with ``select``) the lazily built rows and graph
   (its full object table, oids included) and the rendered views equal
   digests taken from the eager executor this replaced.
2. **Built once** — many threads making the first read of one cached
   result all get the same rows, from one translation pass, and the
   same graph, built exactly once.
3. **Not built at all** — answering a question and reading its gene
   ids, its length or its repr, in process or through ``POST /query``,
   translates no anchor record into a row and constructs no
   :class:`~repro.oem.graph.OEMGraph`.
"""

import hashlib
import json
import os
import sys
import threading
import urllib.request

import pytest

from repro import Annoda
from repro.core.annoda import AnnodaConfig
from repro.mediator import mapping, view
from repro.mediator.view import AnswerView
from repro.navigation.render import (
    render_integrated_view,
    render_integrated_view_html,
)
from repro.oem.graph import OEMGraph
from repro.oem.serialize import to_json_table
from repro.questions import QuestionBuilder
from repro.service import ServiceConfig, serve
from repro.sources.corpus import CorpusParameters
from repro.wrappers import PubmedLikeWrapper, SwissProtLikeWrapper

#: The golden-trace federation's corpus: every catalog question has a
#: non-trivial answer over all five sources.
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

#: The catalog questions plus one that projects its rows.
ROW_QUESTIONS = dict(
    QUESTIONS,
    selected=lambda catalog: (
        QuestionBuilder(
            "Find the symbol and species of genes annotated with some "
            "GO function"
        )
        .include("GO")
        .select("GeneSymbol", "Species")
        .build()
    ),
)

#: Question -> SHA-256 of the sorted-key JSON of ``result.genes``, taken
#: from the executor that translated every surviving anchor inside
#: every answer.
PINNED_ROWS = {
    "figure5b": (
        "affebe642424c74a7bef62a09174407260d7141de05666bbfbcb0f71114e1685"
    ),
    "disease_genes": (
        "d8d194b81b32f4d72351b900647516e3dcd3cb3baea401415487265ea28944b7"
    ),
    "unannotated_genes": (
        "8a14e84c2f8951bcbaf85022cfeb5ce82fd0a072eafd3517edb9264b9a48e2cb"
    ),
    "genes_by_annotation_keyword": (
        "e34ecd9785740059bf64b209f5510837e64ad8c1c41c077aebecb64b9219ffbd"
    ),
    "genes_under_term": (
        "c7632c2dffa92dc4694cd589fa356cf4ab477c2242e5922d25ae2a681a4bb9f9"
    ),
    "cited_disease_genes": (
        "78e374d6cc610983504d697d2b70ddb731c4722c0f51e6a64087364a457e97a6"
    ),
    "selected": (
        "48d1f4685b264726b30f7869688df40d720e78eb22f540ef590758dce1dc6760"
    ),
}

#: Question -> SHA-256 of (sorted-key JSON of ``to_json_table(graph)``,
#: ``render_integrated_view`` text, ``render_integrated_view_html``
#: text), taken from the executor that built the view inside every
#: answer.
PINNED = {
    "figure5b": (
        "391ba355f5e66b30f6a1779831590edc5caea9476ab20c11064a07d9769dbe0d",
        "5f86741ab803e6d8c7eb9981fdb95a944f2ec8a96a0816671142ce260b0f05fb",
        "9b93d776972148e4bd3a3ca2f8749abe5fcc84ad02a3c8e7c02b87b3714983cd",
    ),
    "disease_genes": (
        "4ccd988cb1cf090d782ae8168e7903aaf1da41d70c78841b2108061e4bd19e5e",
        "cd6f3993ba61f9232b155fc6c9efa146425d7d7fc185f7ecdda2a494855b6e7a",
        "b80b9f16f54512785b4190b6413aff948ce59f610d5ba62688a01dc558d5a96e",
    ),
    "unannotated_genes": (
        "3d076a8170ed45d05c901db3ab7f73498a7eb048654198190244951bf416755b",
        "470873f8d4937606fee9001638ae1da2f405699db6f70b56667c49f4c59be9fe",
        "5583cfa897cf65a23640cfbb96c600217f285ce1afe9346fe2e0da105d38b25c",
    ),
    "genes_by_annotation_keyword": (
        "1ccaef46e3945a4fcdf4061088944c819e373ac40c5a99d0c8a6488cd2b2f066",
        "e4728e803eac91f4e5b98abcfea9439e851a345c7f1092947d273fa8074bd899",
        "66277048ebb30baaffc364de671bbaa6ca56fbc6a0febaabf899b203616908ad",
    ),
    "genes_under_term": (
        "2c5f44cd0401cde6abeecf47076b16bdcb92937123c32ee62b80d29c8bd58ed7",
        "14fa1c61496b7b95b8be4414e69b9878fcc5361dfe45b44384c809e62410f108",
        "06063428be7347dbde664f80132ead7866ff0bcd5e209c88a0c7767f95c70e49",
    ),
    "cited_disease_genes": (
        "565058344bce1ca9b0a36a37224b7887cb19159a788a0c8e4c73242eb81cdc8a",
        "d92d894032c8c131b980ad51735a294b162409d9c12f4d31e60508aa726a0e87",
        "2c159bddc6021d0104b4f276d7fd14bc884bd7297a9769243fc6bf6f3013c889",
    ),
}


def build_federation(config=None):
    """A fresh five-source federation, deterministic from ``SEED``."""
    annoda = Annoda.with_default_sources(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS), config=config
    )
    annoda.add_source(
        PubmedLikeWrapper(annoda.corpus.make_citation_store(count=60))
    )
    annoda.add_source(
        SwissProtLikeWrapper(annoda.corpus.make_protein_store())
    )
    return annoda


def rows_digest(result):
    text = json.dumps(result.genes, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def view_digests(result):
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return (
        sha(json.dumps(to_json_table(result.graph), sort_keys=True)),
        sha(render_integrated_view(result)),
        sha(render_integrated_view_html(result)),
    )


@pytest.fixture(scope="module")
def federation():
    return build_federation()


@pytest.fixture
def graphs_constructed(monkeypatch):
    """Every :class:`OEMGraph` constructed while the test runs."""
    constructed = []
    real_init = OEMGraph.__init__

    def counting_init(graph, *args, **kwargs):
        constructed.append(graph)
        real_init(graph, *args, **kwargs)

    monkeypatch.setattr(OEMGraph, "__init__", counting_init)
    return constructed


@pytest.fixture
def rows_translated(monkeypatch):
    """A function counting the anchor records of ``annoda`` translated
    into gene rows while the test runs (a spy on the translation)."""
    translated = []
    for module in (mapping, view):
        real = module.translate

        def spy(record, steps, real=real):
            translated.append(steps)
            return real(record, steps)

        monkeypatch.setattr(module, "translate", spy)

    def count(annoda):
        anchor = annoda.mediator.wrapper("LocusLink")
        steps = annoda.mediator.mapping_module.translation_steps(
            "LocusLink", anchor
        )
        return sum(1 for seen in translated if seen == steps)

    return count


class TestSameRows:
    @pytest.mark.parametrize("name", sorted(ROW_QUESTIONS))
    def test_rows_match_the_eager_executor(self, federation, name):
        result = federation.ask(ROW_QUESTIONS[name](federation.catalog))
        assert rows_digest(result) == PINNED_ROWS[name]
        assert result.gene_ids() == [gene["GeneID"] for gene in result.genes]
        assert len(result) == len(result.genes)


class TestSameView:
    @pytest.mark.parametrize("name", sorted(QUESTIONS))
    def test_view_matches_the_eager_builder(self, federation, name):
        question = QUESTIONS[name](federation.catalog)
        result = federation.ask(question)
        assert result.graph.validate() == []
        assert view_digests(result) == PINNED[name]

    def test_whole_answer_artifact_serves_the_same_view(self):
        """A repeat answered from the cache's answer entry builds the
        same view as the execution that stored it."""
        annoda = build_federation()
        question = annoda.catalog.figure5b()
        cold = annoda.ask(question)
        warm = annoda.ask(question)
        assert annoda.mediator.artifacts.stats()["answer"]["hits"] == 1
        assert warm.view is cold.view
        assert view_digests(warm) == PINNED["figure5b"]

    def test_disk_artifact_round_trips_the_view(self, tmp_path):
        question = QUESTIONS["cited_disease_genes"]
        config = AnnodaConfig(artifact_dir=str(tmp_path))
        first = build_federation(config=config)
        first.ask(question(first.catalog))
        second = build_federation(config=config)
        warm = second.ask(question(second.catalog))
        assert second.mediator.artifacts.stats()["answer"]["hits"] == 1
        assert view_digests(warm) == PINNED["cited_disease_genes"]


class TestBuiltOnce:
    def test_concurrent_first_reads_share_one_build(self, monkeypatch):
        annoda = build_federation()
        question = annoda.catalog.figure5b()
        result = annoda.ask(question)
        assert annoda.ask(question) is result  # one cached, shared result
        builds = []
        real_build = AnswerView.build

        def counting_build(view, genes):
            builds.append(threading.get_ident())
            return real_build(view, genes)

        monkeypatch.setattr(AnswerView, "build", counting_build)
        readers = 4 * (os.cpu_count() or 1) + 2
        start = threading.Barrier(readers)
        seen = [None] * readers
        errors = []

        def read(slot):
            try:
                start.wait(timeout=30)
                seen[slot] = (result.graph, result.root)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(slot,), daemon=True)
            for slot in range(readers)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(builds) == 1
        graph, root = seen[0]
        assert all(pair[0] is graph and pair[1] is root for pair in seen)
        assert result.graph is graph

    def test_concurrent_first_reads_share_one_row_build(
        self, rows_translated
    ):
        annoda = build_federation()
        question = annoda.catalog.figure5b()
        result = annoda.ask(question)
        assert annoda.ask(question) is result  # one cached, shared result
        assert rows_translated(annoda) == 0
        readers = 8
        start = threading.Barrier(readers)
        seen = [None] * readers
        errors = []

        def read(slot):
            try:
                start.wait(timeout=30)
                seen[slot] = result.genes
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(slot,), daemon=True)
            for slot in range(readers)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # One translation pass: each anchor translated exactly once.
        assert rows_translated(annoda) == len(result) > 0
        assert all(genes is seen[0] for genes in seen)
        assert result.genes is seen[0]


class TestNotBuilt:
    def test_ask_and_gene_ids_construct_no_graph(
        self, graphs_constructed, rows_translated
    ):
        """``ask``, ``gene_ids()``, ``len()`` and ``repr()`` translate no
        anchor record into a row and construct no graph."""
        annoda = build_federation()
        graphs_constructed.clear()  # federation set-up is not asked
        for make in QUESTIONS.values():
            result = annoda.ask(make(annoda.catalog), use_cache=False)
            assert result.gene_ids()
            assert len(result) == len(result.gene_ids())
            assert repr(result).startswith(
                f"IntegratedResult({len(result)} genes, "
            )
        assert graphs_constructed == []
        assert rows_translated(annoda) == 0
        assert isinstance(result.graph, OEMGraph)
        assert len(graphs_constructed) == 1
        assert rows_translated(annoda) == len(result)

    def test_post_query_constructs_no_graph(
        self, graphs_constructed, rows_translated
    ):
        """``POST /query`` answers with gene ids and a count: it
        translates no anchor record into a row and constructs no
        graph."""
        annoda = build_federation()
        http_server = serve(
            annoda,
            port=0,
            config=ServiceConfig(queue_capacity=2, workers=1),
        )
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        try:
            graphs_constructed.clear()
            host, port = http_server.server_address[:2]
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps({"question": "figure5b"}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                body = json.loads(response.read())
        finally:
            http_server.close(drain=True)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert body["result"]["gene_count"] == len(
            body["result"]["gene_ids"]
        ) > 0
        assert graphs_constructed == []
        assert rows_translated(annoda) == 0
