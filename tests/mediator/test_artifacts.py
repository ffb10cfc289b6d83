"""Tests for the content-addressed stage artifact cache.

Three contracts pinned here:

1. **Key stability** — ``stage_key`` is a pure content hash: equal
   inputs agree across processes (and hash seeds), every
   distinguishing input changes it, and unsupported types are
   rejected rather than silently repr-hashed.
2. **Store behaviour** — memory LRU, disk tier with digest gating
   (corruption warns and recomputes), source-tag invalidation.
3. **Executor integration** — a repeated query over an
   :class:`ArtifactStore`-equipped mediator reuses finished stages
   (``artifact_hits > 0``, identical answers), while version bumps
   and source re-registration miss stale artifacts.
"""

import subprocess
import sys

import pytest

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.mediator.artifacts import (
    ARTIFACT_SUFFIX,
    ArtifactStore,
    stage_key,
)
from repro.mediator.decompose import Condition
from repro.wrappers import default_wrappers


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


PINNED_KEY_ARGS = dict(
    source="LocusLink",
    version=3,
    conditions=(Condition("Organism", "=", "Homo sapiens"),),
    upstream=((("GO", 2), (1, 2, 3)),),
    extra=("include", True),
)

#: The digest the recipe produced when this test was written.  If this
#: assertion ever fails, the key recipe changed shape — bump
#: ARTIFACT_SCHEMA so old artifacts can never be misread.
PINNED_DIGEST = (
    "e427c0eaca564170cefc5f68ed27a27434c68d6c03d64aed9d6dcd4e31350e22"
)


class TestStageKey:
    def test_pinned_digest(self):
        assert stage_key("reconcile", **PINNED_KEY_ARGS) == PINNED_DIGEST

    def test_stable_across_processes_and_hash_seeds(self):
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.mediator.artifacts import stage_key\n"
            "from repro.mediator.decompose import Condition\n"
            "print(stage_key('reconcile', source='LocusLink', version=3,"
            " conditions=(Condition('Organism', '=', 'Homo sapiens'),),"
            " upstream=((('GO', 2), (1, 2, 3)),),"
            " extra=('include', True)))\n"
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
        base = stage_key("reconcile", **PINNED_KEY_ARGS)
        assert stage_key("enrichment", **PINNED_KEY_ARGS) != base
        for field, changed in [
            ("source", "GO"),
            ("version", 4),
            ("conditions", ()),
            ("upstream", ()),
            ("extra", ("exclude", True)),
        ]:
            args = dict(PINNED_KEY_ARGS)
            args[field] = changed
            assert stage_key("reconcile", **args) != base, field

    def test_condition_objects_normalize_to_triples(self):
        as_object = stage_key(
            "anchor", conditions=(Condition("Symbol", "=", "TP53"),)
        )
        as_triple = stage_key(
            "anchor", conditions=(("Symbol", "=", "TP53"),)
        )
        assert as_object == as_triple

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError):
            stage_key("anchor", extra=(object(),))


class TestMemoryTier:
    def test_put_get_round_trip(self):
        store = ArtifactStore()
        size = store.put("k1", {"rows": [1, 2]}, sources=("GO",))
        assert size > 0
        payload, got_size = store.get("k1")
        assert payload == {"rows": [1, 2]}
        assert got_size == size

    def test_miss_returns_none_and_counts(self):
        store = ArtifactStore()
        assert store.get("absent") is None
        assert store.stats()["misses"] == 1

    def test_lru_evicts_oldest_and_hits_refresh(self):
        store = ArtifactStore(max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") is not None  # refresh: "b" is now oldest
        store.put("c", 3)
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None

    def test_invalidate_source_drops_tagged_entries(self):
        store = ArtifactStore()
        store.put("a", 1, sources=("GO", "LocusLink"))
        store.put("b", 2, sources=("OMIM",))
        assert store.invalidate_source("GO") == 1
        assert store.get("a") is None
        assert store.get("b") is not None

    def test_live_put_shares_by_reference_without_pickling(self):
        store = ArtifactStore()
        payload = {"callback": lambda: None}  # not even picklable
        assert store.put("k", payload, live=True) == 0
        got, size = store.get("k")
        assert got is payload
        assert size == 0

    def test_invalidate_source_drops_live_entries(self):
        store = ArtifactStore()
        store.put("k", {"x": 1}, sources=("GO",), live=True)
        assert store.invalidate_source("GO") == 1
        assert store.get("k") is None


class TestDiskTier:
    def test_survives_a_fresh_store(self, tmp_path):
        ArtifactStore(directory=tmp_path).put(
            "k1", {"x": 1}, sources=("GO",)
        )
        reopened = ArtifactStore(directory=tmp_path)
        payload, _size = reopened.get("k1")
        assert payload == {"x": 1}
        assert reopened.stats()["hits"] == 1

    def test_corrupted_artifact_warns_and_recomputes(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("k1", {"x": 1})
        path = tmp_path / f"k1{ARTIFACT_SUFFIX}"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte: digest gate must trip
        path.write_bytes(bytes(data))
        cold = ArtifactStore(directory=tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupted"):
            assert cold.get("k1") is None
        assert cold.stats()["misses"] == 1

    def test_truncated_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("k1", list(range(100)))
        path = tmp_path / f"k1{ARTIFACT_SUFFIX}"
        path.write_bytes(path.read_bytes()[:10])
        with pytest.warns(RuntimeWarning):
            assert ArtifactStore(directory=tmp_path).get("k1") is None

    def test_invalidate_source_unlinks_tagged_files(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        store.put("a", 1, sources=("GO",))
        store.put("b", 2, sources=("OMIM",))
        fresh = ArtifactStore(directory=tmp_path)  # memory tier empty
        assert fresh.invalidate_source("GO") == 1
        assert not (tmp_path / f"a{ARTIFACT_SUFFIX}").exists()
        assert (tmp_path / f"b{ARTIFACT_SUFFIX}").exists()

    def test_live_put_with_disk_still_round_trips(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        payload = {"genes": [1, 2]}
        assert store.put("k", payload, live=True) > 0
        got, _size = store.get("k")
        assert got is payload  # memory tier hands back the object
        reread, _size = ArtifactStore(directory=tmp_path).get("k")
        assert reread == payload
        assert reread is not payload  # disk tier unpickles a copy


class TestExecutorIntegration:
    def test_repeated_query_hits_artifacts(self, corpus):
        mediator = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        cold = mediator.query(query, use_cache=False)
        assert cold.stats.artifact_hits == 0
        assert cold.stats.artifact_misses > 0
        warm = mediator.query(query, use_cache=False)
        assert warm.stats.artifact_hits > 0
        assert warm.stats.artifact_misses == 0
        assert warm.gene_ids() == cold.gene_ids()

    def test_artifacts_change_no_answers(self, corpus):
        plain = _mediator(corpus)
        cached = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        expected = plain.query(query, use_cache=False).gene_ids()
        assert cached.query(query, use_cache=False).gene_ids() == expected
        assert cached.query(query, use_cache=False).gene_ids() == expected

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
        mediator.query(query, use_cache=False)
        warm = mediator.query(query, use_cache=False)
        assert warm.stats.artifact_misses == 0
        private.omim.add(
            OmimRecord(mim_number=999999, title="synthetic delta")
        )
        bumped = mediator.query(query, use_cache=False)
        assert bumped.stats.artifact_misses > 0
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
        mediator.query(query, use_cache=False)
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
        rerun = mediator.query(query, use_cache=False)
        assert rerun.stats.artifact_hits == 0

    def test_disk_artifacts_survive_a_new_mediator(self, corpus, tmp_path):
        query = _flagship_query()
        first = _mediator(corpus, artifacts=ArtifactStore(directory=tmp_path))
        expected = first.query(query, use_cache=False).gene_ids()
        second = _mediator(
            corpus, artifacts=ArtifactStore(directory=tmp_path)
        )
        warm = second.query(query, use_cache=False)
        assert warm.stats.artifact_hits > 0
        assert warm.gene_ids() == expected


class TestAnswerStage:
    """The whole-answer artifact: a clean execution stores its
    constructed answer as a live payload, and an untraced repeat at
    the same source versions answers straight from the store —
    skipping fetch, reconcile and answer construction."""

    def test_warm_repeat_skips_every_stage(self, corpus):
        mediator = _mediator(corpus, artifacts=ArtifactStore())
        query = _flagship_query()
        cold = mediator.query(query, use_cache=False)
        warm = mediator.query(query, use_cache=False)
        assert warm.stats.artifact_hits == 1
        assert warm.stats.artifact_misses == 0
        # Nothing below the answer stage ran on the repeat.
        assert warm.stats.anchors_considered == 0
        assert warm.gene_ids() == cold.gene_ids()

    def test_projection_participates_in_the_key(self, corpus):
        """A projected repeat of the same plan must not be served the
        unprojected cached answer."""
        from repro.mediator import GlobalQuery

        mediator = _mediator(corpus, artifacts=ArtifactStore())
        full = _flagship_query()
        mediator.query(full, use_cache=False)
        projected = GlobalQuery(
            anchor_source=full.anchor_source,
            links=full.links,
            select=("GeneID",),
        )
        narrow = mediator.query(projected, use_cache=False)
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
        mediator.query(query, use_cache=False)
        recorder = TraceRecorder()
        traced = mediator.query(
            query, use_cache=False, recorder=recorder
        )
        assert traced.trace.find("fetch") is not None
        assert traced.trace.find("reconcile") is not None

    def test_degraded_runs_are_not_reusable(self, corpus):
        """A degraded answer is missing data its source versions can
        provide — it must never be stored, so a later healthy run
        over the same store recomputes a complete answer."""
        from repro.mediator.fetch import FederationPolicy, FlakyWrapper

        store = ArtifactStore()
        flaky = Mediator(
            artifacts=store,
            federation=FederationPolicy(on_failure="degrade"),
        )
        for wrapper in default_wrappers(corpus):
            if wrapper.name == "GO":
                wrapper = FlakyWrapper(wrapper, blackout=True)
            flaky.register_wrapper(wrapper)
        query = _flagship_query()
        partial = flaky.query(query, use_cache=False)
        assert not partial.report.ok
        healthy = _mediator(corpus, artifacts=store)
        complete = healthy.query(query, use_cache=False)
        assert complete.report.ok
        # The degraded include-constraint was skipped, so the partial
        # answer is a superset; a complete recomputation narrows it.
        assert set(complete.gene_ids()) <= set(partial.gene_ids())
