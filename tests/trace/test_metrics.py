"""Unit tests for the metrics registry and counter reconciliation."""

import pytest

from repro.trace import METRICS, MetricsRegistry, TraceRecorder, counter_totals
from repro.util.clock import FakeClock


class TestMetricsRegistry:
    def test_register_and_lookup(self):
        registry = MetricsRegistry()
        metric = registry.register("rows", stage="fetch", description="x")
        assert registry.get("rows") is metric
        assert metric.stages == ("fetch",)
        assert registry.carried_by("fetch") == ["rows"]
        assert "rows" in registry
        assert registry.names() == ["rows"]
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = MetricsRegistry()
        registry.register("rows", stage="fetch")
        with pytest.raises(ValueError):
            registry.register("rows", stage="other")

    def test_unknown_lookups(self):
        registry = MetricsRegistry()
        assert registry.get("missing") is None
        assert registry.carried_by("missing") == []
        assert "missing" not in registry

    def test_a_counter_may_be_carried_by_several_stages(self):
        registry = MetricsRegistry()
        registry.register("batched_fetches", stage=("anchor", "enrichment"))
        registry.register("enrichment_cache_hits", stage="enrichment")
        metric = registry.get("batched_fetches")
        assert metric.stages == ("anchor", "enrichment")
        assert registry.carried_by("anchor") == ["batched_fetches"]
        assert registry.carried_by("enrichment") == [
            "batched_fetches", "enrichment_cache_hits",
        ]

    def test_render_lists_every_metric(self):
        lines = METRICS.render().splitlines()
        assert len(lines) == len(METRICS)
        assert any(line.startswith("rows ") for line in lines)


class TestGlobalRegistry:
    #: Every execution work counter is declared as a metric
    #: (wall_seconds is the span duration itself; rows_fetched per
    #: source folds into the fetch spans' ``rows``; degraded sources
    #: and per-source reports are attributes, not counters).
    EXPECTED = {
        "rows", "attempts", "retries", "timeouts",
        "residual_evaluations", "concurrent_batches", "batched_fetches",
        "enrichment_cache_hits", "anchors_considered", "anchors_returned",
        "conflicts", "repaired", "index_hits", "scan_fetches",
        "indexes_rebuilt", "indexes_adopted", "replica_failovers",
    }

    def test_registry_covers_every_execution_counter(self):
        assert set(METRICS.names()) == self.EXPECTED

    def test_every_metric_has_a_stage_and_description(self):
        for metric in METRICS:
            assert metric.stages
            assert metric.description

    def test_stage_spans_carry_the_counters_they_move(self):
        assert METRICS.carried_by("fetch") == [
            "residual_evaluations", "concurrent_batches",
        ]
        assert METRICS.carried_by("anchor") == [
            "residual_evaluations", "batched_fetches",
        ]
        assert METRICS.carried_by("enrichment") == [
            "concurrent_batches", "batched_fetches",
            "enrichment_cache_hits",
        ]


class TestCounterTotals:
    def test_sums_across_the_tree(self):
        recorder = TraceRecorder(clock=FakeClock())
        with recorder.span("query"):
            with recorder.span("fetch:GO") as go:
                go.incr("rows", 5)
            with recorder.span("fetch:OMIM") as omim:
                omim.incr("rows", 3)
                omim.incr("retries", 1)
        assert counter_totals(recorder.root) == {"rows": 8, "retries": 1}

    def test_none_totals_to_empty(self):
        assert counter_totals(None) == {}
