"""The mediator's one version-keyed cache and its answer rule.

Every mediator owns one :class:`~repro.mediator.artifacts.ArtifactStore`
holding whole answers, enrichment indexes, symbol indexes and link
tables.  Pinned here:

1. **Stale answers are evicted** — putting an answer replaces the
   older versions of the same question, so a freshness workload (a
   LocusLink update after every fourth answer) leaves at most one
   answer per question instead of filling the LRU with stale ones.
2. **``use_cache=False`` is live** — it neither reads nor writes
   answers, memory or disk tier.
3. **``GET /metrics`` shows the store** — a per-kind ``cache``
   section whose answer hits grow on a repeated question.
"""

import json
import threading
import urllib.request

from repro import Annoda
from repro.core.annoda import AnnodaConfig
from repro.service import ServiceConfig, serve
from repro.sources.corpus import CorpusParameters
from repro.wrappers import PubmedLikeWrapper

#: The freshness federation: 2k loci, conflicts injected, plus a
#: PubMed-like citation store so every catalog question has a source.
FRESHNESS_PARAMETERS = dict(
    loci=2000, go_terms=500, omim_entries=250, conflict_rate=0.2
)

#: A LocusLink curation update follows every this many answers.
UPDATE_EVERY = 4

#: Answers the freshness workload asks.
ANSWERS = 72


def catalog_questions(annoda):
    catalog = annoda.catalog
    return [
        catalog.figure5b(),
        catalog.disease_genes(),
        catalog.unannotated_genes(),
        catalog.genes_by_annotation_keyword("binding"),
        catalog.genes_under_term("GO:0000002"),
        catalog.cited_disease_genes(),
    ]


def cache_stats(annoda):
    return annoda.mediator.artifacts.stats()


class TestStaleAnswersEvicted:
    def test_freshness_workload_keeps_one_answer_per_question(self):
        annoda = Annoda.with_default_sources(
            seed=7, parameters=CorpusParameters(**FRESHNESS_PARAMETERS)
        )
        annoda.add_source(
            PubmedLikeWrapper(annoda.corpus.make_citation_store(count=400))
        )
        questions = catalog_questions(annoda)
        store = annoda.corpus.locuslink
        locus_ids = store.locus_ids()
        for answered in range(1, ANSWERS + 1):
            annoda.ask(questions[(answered - 1) % len(questions)])
            if answered % UPDATE_EVERY == 0:
                # A new source version over identical data.
                locus_id = locus_ids[answered % len(locus_ids)]
                record = store.get(locus_id)
                store.remove(locus_id)
                store.add(record)
        stats = cache_stats(annoda)
        assert stats["answer"]["misses"] > len(questions)
        assert 0 < stats["answer"]["entries"] <= len(questions)
        # The link-source indexes were never invalidated: one each.
        assert stats["enrichment"]["entries"] <= len(annoda.sources())
        assert stats["enrichment"]["hits"] > 0

    def test_repeat_after_an_update_replaces_the_stale_answer(self):
        annoda = Annoda.with_default_sources(
            seed=7,
            parameters=CorpusParameters(
                loci=120, go_terms=80, omim_entries=40
            ),
        )
        question = annoda.catalog.figure5b()
        first = annoda.ask(question)
        store = annoda.corpus.locuslink
        locus_id = store.locus_ids()[0]
        record = store.get(locus_id)
        store.remove(locus_id)
        store.add(record)
        second = annoda.ask(question)
        assert second is not first
        assert second.gene_ids() == first.gene_ids()
        assert annoda.ask(question) is second
        assert cache_stats(annoda)["answer"]["entries"] == 1


class TestUseCacheFalseIsLive:
    def test_second_uncached_ask_executes_with_a_disk_tier(self, tmp_path):
        annoda = Annoda.with_default_sources(
            seed=7,
            parameters=CorpusParameters(
                loci=120, go_terms=80, omim_entries=40
            ),
            config=AnnodaConfig(artifact_dir=str(tmp_path)),
        )
        question = annoda.catalog.figure5b()
        annoda.ask(question, use_cache=False)
        second = annoda.ask(question, use_cache=False)
        assert second.stats.anchors_considered > 0
        assert not second.from_result_cache
        assert list(tmp_path.iterdir()) == []

    def test_uncached_ask_writes_no_answer(self):
        annoda = Annoda.with_default_sources(
            seed=7,
            parameters=CorpusParameters(
                loci=120, go_terms=80, omim_entries=40
            ),
        )
        question = annoda.catalog.figure5b()
        annoda.ask(question, use_cache=False)
        cached = annoda.ask(question)
        assert not cached.from_result_cache
        assert cache_stats(annoda)["answer"]["hits"] == 0


class TestMetricsCacheSection:
    def test_answer_hits_grow_on_a_repeat(self):
        annoda = Annoda.with_default_sources(
            seed=7,
            parameters=CorpusParameters(
                loci=120, go_terms=80, omim_entries=40
            ),
        )
        http_server = serve(
            annoda, port=0,
            config=ServiceConfig(queue_capacity=2, workers=1),
        )
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        host, port = http_server.server_address[:2]

        def call(path, payload=None):
            request = urllib.request.Request(
                f"http://{host}:{port}{path}",
                data=None if payload is None else json.dumps(
                    payload
                ).encode(),
                method="GET" if payload is None else "POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                return json.loads(response.read())

        try:
            call("/query", {"question": "figure5b"})
            before = call("/metrics")["cache"]
            call("/query", {"question": "figure5b"})
            after = call("/metrics")["cache"]
        finally:
            http_server.close(drain=True)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert set(after) == {"answer", "enrichment", "symbols", "links"}
        assert set(after["answer"]) == {"hits", "misses", "entries"}
        assert after["answer"]["hits"] == before["answer"]["hits"] + 1
        assert after["answer"]["entries"] == 1
        assert after["enrichment"]["entries"] > 0
