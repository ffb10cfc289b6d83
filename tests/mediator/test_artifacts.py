"""Tests for the mediator's one version-keyed cache.

Three contracts pinned here:

1. **Key stability** — ``stage_key`` is a pure content hash: equal
   inputs agree across processes (and hash seeds), every
   distinguishing input changes it, and unsupported types are
   rejected rather than silently repr-hashed.
2. **Store behaviour** — memory LRU with one entry per identity, disk
   tier with digest gating (corruption warns and recomputes),
   source-tag invalidation.
3. **Mediator integration** — a repeated query reuses its stored
   answer (answer hits, identical answers), while version bumps and
   source re-registration miss stale entries.
"""

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.artifacts import (
    ARTIFACT_SUFFIX,
    ArtifactStore,
    stage_key,
)
from repro.mediator.decompose import Condition
from repro.oem.serialize import to_json_table
from repro.wrappers import default_wrappers

#: The (source, version) pairs the store unit tests build entries from.
VERSIONS = (("GO", 1),)


def _flagship_query():
    return GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint("GO", "include", via="AnnotationID"),
            LinkConstraint("OMIM", "exclude", via="DiseaseID"),
        ),
    )


def _mediator(corpus, artifacts=None):
    mediator = Mediator(artifacts=artifacts)
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    return mediator


def _probe(mediator, query, **kwargs):
    """Ask ``query``; returns the result and the answer hits and misses
    the ask added to the mediator's store."""
    before = mediator.artifacts.stats()["answer"]
    result = mediator.query(query, **kwargs)
    after = mediator.artifacts.stats()["answer"]
    return result, {
        outcome: after[outcome] - before[outcome]
        for outcome in ("hits", "misses")
    }


def _graph_digest(result):
    """SHA-256 of the answer's OEM view, oids included."""
    text = json.dumps(to_json_table(result.graph), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PINNED_KEY_ARGS = dict(
    identity=(
        (Condition("Organism", "=", "Homo sapiens"),),
        ("include", True),
    ),
    versions=(("LocusLink", 3), ("GO", 2)),
)

#: The digest the recipe produces at ``ARTIFACT_SCHEMA = 6``.  If this
#: assertion ever fails, the key recipe changed shape — bump
#: ARTIFACT_SCHEMA so old artifacts can never be misread (and re-pin
#: this digest with the bump, as schemas 3, 4, 5 and 6 did).
PINNED_DIGEST = (
    "3c973b6919a1e4e7e2884237b73b7ba753e6835279080f2d2261588fa25ec82e"
)


class TestStageKey:
    def test_pinned_digest(self):
        assert stage_key("answer", **PINNED_KEY_ARGS) == PINNED_DIGEST

    def test_stable_across_processes_and_hash_seeds(self):
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.mediator.artifacts import stage_key\n"
            "from repro.mediator.decompose import Condition\n"
            "print(stage_key('answer',"
            " identity=((Condition('Organism', '=', 'Homo sapiens'),),"
            " ('include', True)),"
            " versions=(('LocusLink', 3), ('GO', 2))))\n"
        )
        for seed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": ""},
                check=True,
            )
            assert out.stdout.strip() == PINNED_DIGEST

    def test_every_component_distinguishes(self):
        base = stage_key("answer", **PINNED_KEY_ARGS)
        assert stage_key("enrichment", **PINNED_KEY_ARGS) != base
        for field, changed in [
            ("identity", ((), ("include", True))),
            ("identity", ((Condition("Organism", "=", "Mus"),),
                          ("include", True))),
            ("identity", (PINNED_KEY_ARGS["identity"][0],
                          ("exclude", True))),
            ("versions", (("LocusLink", 4), ("GO", 2))),
            ("versions", (("LocusLink", 3),)),
        ]:
            args = dict(PINNED_KEY_ARGS)
            args[field] = changed
            assert stage_key("answer", **args) != base, field

    def test_condition_objects_normalize_to_triples(self):
        as_object = stage_key(
            "answer", (Condition("Symbol", "=", "TP53"),)
        )
        as_triple = stage_key(
            "answer", (("Symbol", "=", "TP53"),)
        )
        assert as_object == as_triple

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError):
            stage_key("answer", (object(),))

    def test_frozen_dataclasses_participate_by_type_and_fields(self):
        query = _flagship_query()
        assert stage_key("answer", query) == stage_key(
            "answer", _flagship_query()
        )
        projected = GlobalQuery(
            anchor_source=query.anchor_source,
            links=query.links,
            select=("GeneID",),
        )
        assert stage_key("answer", projected) != stage_key("answer", query)

        @dataclass
        class Mutable:
            value: int = 0

        with pytest.raises(TypeError):
            stage_key("answer", Mutable())


class TestMemoryTier:
    def test_put_get_round_trip(self):
        store = ArtifactStore()
        store.put("answer", "k1", VERSIONS, {"rows": [1, 2]})
        payload = store.get("answer", "k1", VERSIONS)
        assert payload == {"rows": [1, 2]}
        assert store.get("answer", "k1", (("GO", 2),)) is None

    def test_miss_returns_none_and_counts(self):
        store = ArtifactStore()
        assert store.get("answer", "absent", VERSIONS) is None
        assert store.stats()["answer"]["misses"] == 1

    def test_lru_evicts_oldest_and_hits_refresh(self):
        store = ArtifactStore(max_entries=2)
        store.put("answer", "a", VERSIONS, 1)
        store.put("answer", "b", VERSIONS, 2)
        # refresh: "b" is now oldest
        assert store.get("answer", "a", VERSIONS) is not None
        store.put("answer", "c", VERSIONS, 3)
        assert store.get("answer", "b", VERSIONS) is None
        assert store.get("answer", "a", VERSIONS) is not None
        assert store.get("answer", "c", VERSIONS) is not None

    def test_put_replaces_older_versions_of_the_identity(self):
        store = ArtifactStore()
        store.put("enrichment", "GO", (("GO", 1),), "old")
        store.put("enrichment", "GO", (("GO", 2),), "new")
        store.put("symbols", "GO", (("GO", 1),), "other kind")
        assert store.get("enrichment", "GO", (("GO", 1),)) is None
        assert store.get("enrichment", "GO", (("GO", 2),)) == "new"
        assert store.stats()["enrichment"] == {
            "hits": 1, "misses": 1, "entries": 1,
        }
        assert store.stats()["symbols"]["entries"] == 1

    def test_invalidate_source_drops_tagged_entries(self):
        store = ArtifactStore()
        store.put("answer", "a", (("GO", 1), ("LocusLink", 1)), 1)
        store.put("answer", "b", (("OMIM", 1),), 2)
        assert store.invalidate_source("GO") == 1
        assert store.get("answer", "a", (("GO", 1), ("LocusLink", 1))) is None
        assert store.get("answer", "b", (("OMIM", 1),)) is not None

    def test_live_put_shares_by_reference_without_pickling(self):
        store = ArtifactStore()
        payload = {"callback": lambda: None}  # not even picklable
        store.put("answer", "k", VERSIONS, payload)
        got = store.get("answer", "k", VERSIONS)
        assert got is payload

    def test_invalidate_source_drops_live_entries(self):
        store = ArtifactStore()
        store.put("answer", "k", VERSIONS, {"x": 1})
        assert store.invalidate_source("GO") == 1
        assert store.get("answer", "k", VERSIONS) is None


def _disk_path(tmp_path, identity):
    return tmp_path / f"{stage_key('answer', identity, VERSIONS)}" \
        f"{ARTIFACT_SUFFIX}"


class TestDiskTier:
    def test_survives_a_fresh_store(self, tmp_path):
        ArtifactStore(directory=tmp_path).put(
            "answer", "k1", VERSIONS, {"x": 1}, persist=True
        )
        reopened = ArtifactStore(directory=tmp_path)
        payload = reopened.get("answer", "k1", VERSIONS)
        assert payload == {"x": 1}
        assert reopened.stats()["answer"]["hits"] == 1

    def test_only_persisted_entries_reach_disk(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("answer", "k1", VERSIONS, {"x": 1})
        assert list(tmp_path.iterdir()) == []
        reopened = ArtifactStore(directory=tmp_path)
        assert reopened.get("answer", "k1", VERSIONS) is None

    def test_corrupted_artifact_warns_and_recomputes(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("answer", "k1", VERSIONS, {"x": 1}, persist=True)
        path = _disk_path(tmp_path, "k1")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte: digest gate must trip
        path.write_bytes(bytes(data))
        cold = ArtifactStore(directory=tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupted"):
            assert cold.get("answer", "k1", VERSIONS) is None
        assert cold.stats()["answer"]["misses"] == 1

    def test_truncated_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("answer", "k1", VERSIONS, list(range(100)), persist=True)
        path = _disk_path(tmp_path, "k1")
        path.write_bytes(path.read_bytes()[:10])
        with pytest.warns(RuntimeWarning):
            assert ArtifactStore(directory=tmp_path).get(
                "answer", "k1", VERSIONS
            ) is None

    def test_invalidate_source_unlinks_tagged_files(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("answer", "a", (("GO", 1),), 1, persist=True)
        store.put("answer", "b", (("OMIM", 1),), 2, persist=True)
        fresh = ArtifactStore(directory=tmp_path)  # memory tier empty
        assert fresh.invalidate_source("GO") == 1
        a_name = stage_key("answer", "a", (("GO", 1),))
        b_name = stage_key("answer", "b", (("OMIM", 1),))
        assert not (tmp_path / f"{a_name}{ARTIFACT_SUFFIX}").exists()
        assert (tmp_path / f"{b_name}{ARTIFACT_SUFFIX}").exists()

    def test_live_put_with_disk_still_round_trips(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        payload = {"genes": [1, 2]}
        store.put("answer", "k", VERSIONS, payload, persist=True)
        got = store.get("answer", "k", VERSIONS)
        assert got is payload  # memory tier hands back the object
        reread = ArtifactStore(directory=tmp_path).get(
            "answer", "k", VERSIONS
        )
        assert reread == payload
        assert reread is not payload  # disk tier unpickles a copy


class TestExecutorIntegration:
    def test_repeated_query_hits_artifacts(self, corpus):
        mediator = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        cold, cold_probe = _probe(mediator, query)
        assert cold_probe["hits"] == 0
        assert cold_probe["misses"] > 0
        warm, warm_probe = _probe(mediator, query)
        assert warm_probe["hits"] > 0
        assert warm_probe["misses"] == 0
        assert warm.gene_ids() == cold.gene_ids()

    def test_artifacts_change_no_answers(self, corpus):
        plain = _mediator(corpus)
        cached = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        expected = plain.query(query, use_cache=False).gene_ids()
        assert cached.query(query).gene_ids() == expected
        assert cached.query(query).gene_ids() == expected

    def test_version_bump_misses_stale_artifacts(self):
        """A mutated source changes its version counter, so every
        stage key over it changes — its stale artifacts are
        unreachable and the stages recompute against live data."""
        from repro.sources.corpus import AnnotationCorpus, CorpusParameters
        from repro.sources.omim import OmimRecord

        private = AnnotationCorpus.generate(
            seed=41,
            parameters=CorpusParameters(
                loci=80, go_terms=50, omim_entries=25
            ),
        )
        mediator = _mediator(private, artifacts=ArtifactStore())
        query = _flagship_query()
        mediator.query(query)
        _warm, warm_probe = _probe(mediator, query)
        assert warm_probe["misses"] == 0
        private.omim.add(
            OmimRecord(mim_number=999999, title="synthetic delta")
        )
        bumped, bumped_probe = _probe(mediator, query)
        assert bumped_probe["misses"] > 0
        plain = _mediator(private)
        assert bumped.gene_ids() == plain.query(
            query, use_cache=False
        ).gene_ids()

    def test_reregistration_misses_stale_artifacts(self, corpus):
        """A re-registered source may reuse version counters; the
        unregister hook drops every artifact tagged with it."""
        from repro.sources.corpus import AnnotationCorpus, CorpusParameters

        mediator = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        mediator.query(query)
        other_corpus = AnnotationCorpus.generate(
            seed=99,
            parameters=CorpusParameters(
                loci=150, go_terms=90, omim_entries=45
            ),
        )
        replacement = next(
            wrapper
            for wrapper in default_wrappers(other_corpus)
            if wrapper.name == "OMIM"
        )
        mediator.unregister_source("OMIM")
        mediator.register_wrapper(replacement)
        _rerun, rerun_probe = _probe(mediator, query)
        assert rerun_probe["hits"] == 0

    def test_disk_artifacts_survive_a_new_mediator(self, corpus, tmp_path):
        query = _flagship_query()
        first = _mediator(corpus, artifacts=ArtifactStore(directory=tmp_path))
        expected = first.query(query).gene_ids()
        second = _mediator(
            corpus, artifacts=ArtifactStore(directory=tmp_path)
        )
        warm, warm_probe = _probe(second, query)
        assert warm_probe["hits"] > 0
        assert warm.gene_ids() == expected


    def test_never_read_answer_round_trips_the_disk_tier(
        self, corpus, tmp_path
    ):
        """An answer nobody read persists its rows: reloaded through a
        fresh store on the same directory, its rows, gene ids and view
        equal those of an answer read as soon as it was answered."""
        query = _flagship_query()
        eager = _mediator(corpus).query(query, use_cache=False)
        expected = (eager.genes, eager.gene_ids(), _graph_digest(eager))
        first = _mediator(corpus, artifacts=ArtifactStore(directory=tmp_path))
        first.query(query)  # persisted without a read
        second = _mediator(
            corpus, artifacts=ArtifactStore(directory=tmp_path)
        )
        warm, warm_probe = _probe(second, query)
        assert warm_probe["hits"] == 1
        assert (warm.genes, warm.gene_ids(), _graph_digest(warm)) == expected


class TestAnswerStage:
    """Whole answers: a clean execution stores its answer, and an
    untraced repeat at the same source versions answers straight from
    the store — skipping planning, fetch, reconcile and answer
    construction."""

    def test_warm_repeat_skips_every_stage(self, corpus, tmp_path):
        # The warm repeat runs in a second mediator over the same disk
        # tier: a reloaded answer carries empty execution stats, so
        # they show that nothing ran (a memory hit shares the cold
        # run's result object, stats included).
        cold_mediator = _mediator(
            corpus, artifacts=ArtifactStore(directory=tmp_path)
        )
        mediator = _mediator(
            corpus, artifacts=ArtifactStore(directory=tmp_path)
        )
        query = _flagship_query()
        cold = cold_mediator.query(query)
        warm, warm_probe = _probe(mediator, query)
        assert warm_probe["hits"] == 1
        assert warm_probe["misses"] == 0
        # Nothing below the answer stage ran on the repeat.
        assert warm.report.counters["anchors_considered"] == 0
        assert warm.gene_ids() == cold.gene_ids()

    def test_projection_participates_in_the_key(self, corpus):
        """A projected repeat of the same plan must not be served the
        unprojected cached answer."""
        from repro.mediator import GlobalQuery

        mediator = _mediator(corpus, artifacts=ArtifactStore())
        full = _flagship_query()
        mediator.query(full)
        projected = GlobalQuery(
            anchor_source=full.anchor_source,
            links=full.links,
            select=("GeneID",),
        )
        narrow = mediator.query(projected)
        assert narrow.genes
        assert all(
            set(gene) <= {"GeneID", "_links"} for gene in narrow.genes
        )

    def test_traced_repeat_replays_the_flight(self, corpus):
        """Tracing bypasses the answer probe (like the result cache):
        a traced repeat records the full span tree, and still leaves
        the artifact behind for untraced repeats."""
        from repro.trace import TraceRecorder

        mediator = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        mediator.query(query)
        recorder = TraceRecorder()
        traced = mediator.query(query, recorder=recorder)
        assert traced.trace.find("fetch") is not None
        assert traced.trace.find("reconcile") is not None

    def test_degraded_runs_are_not_reusable(self, corpus, tmp_path):
        """A degraded answer is missing data its source versions can
        provide — it must never reach the disk tier, so a later
        healthy run over the same directory (same policies, same
        versions: the same answer key) recomputes a complete
        answer."""
        from repro.mediator.fetch import FederationPolicy, FlakyWrapper

        policy = FederationPolicy(on_failure="degrade")
        flaky = Mediator(
            artifacts=ArtifactStore(directory=tmp_path),
            federation=policy,
        )
        for wrapper in default_wrappers(corpus):
            if wrapper.name == "GO":
                wrapper = FlakyWrapper(wrapper, blackout=True)
            flaky.register_wrapper(wrapper)
        query = _flagship_query()
        partial = flaky.query(query)
        assert not partial.report.ok
        healthy = Mediator(
            artifacts=ArtifactStore(directory=tmp_path), federation=policy
        )
        for wrapper in default_wrappers(corpus):
            healthy.register_wrapper(wrapper)
        complete = healthy.query(query)
        assert complete.report.ok
        # The degraded include-constraint was skipped, so the partial
        # answer is a superset; a complete recomputation narrows it.
        assert set(complete.gene_ids()) <= set(partial.gene_ids())
