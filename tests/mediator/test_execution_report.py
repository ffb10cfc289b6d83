"""The unified ExecutionReport exposed as ``IntegratedResult.report``."""

import pytest

from repro.mediator import GlobalQuery, LinkConstraint
from repro.mediator.decompose import Condition
from repro.mediator.executor import ExecutionReport, SourceReport
from repro.trace.metrics import METRICS

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


@pytest.fixture()
def result(mediator):
    return mediator.query(QUERY)


class TestUnifiedAccounting:
    def test_report_is_an_execution_report(self, result):
        assert isinstance(result.report, ExecutionReport)

    def test_counters_reachable_through_the_report(self, result):
        report = result.report
        assert list(report.counters) == METRICS.names()
        assert report.counters["rows"] == sum(report.rows_fetched.values())
        assert report.counters["rows"] > 0
        counters = report.counters
        assert counters["index_hits"] + counters["scan_fetches"] > 0
        assert report.wall_seconds > 0
        assert counters["retries"] == 0
        assert counters["timeouts"] == 0

    def test_per_source_reports(self, result):
        sources = result.report.sources
        assert "LocusLink" in sources
        assert "GO" in sources
        for report in sources.values():
            assert isinstance(report, SourceReport)
            assert report.status == "ok"
            assert report.fetches >= 1
            assert report.attempts >= report.fetches
            assert report.seconds >= 0

    def test_clean_run_is_ok_with_no_degradation(self, result):
        assert result.report.ok
        assert result.report.degraded == ()

    def test_reconciliation_nested_under_the_report(self, result):
        assert result.report.reconciliation is result.reconciliation

    def test_describe_renders_every_source(self, result):
        text = result.report.describe()
        assert "execution report:" in text
        assert "LocusLink" in text and "GO" in text
        assert "retries 0" in text

    def test_describe_names_every_registered_counter(self, result):
        text = result.report.describe()
        for name, value in result.report.counters.items():
            assert f"{name} {value}" in text

    def test_empty_report_counts_every_registered_name(self):
        report = ExecutionReport()
        assert list(report.counters) == METRICS.names()
        assert set(report.counters.values()) == {0}
        with pytest.raises(KeyError):
            report.incr("no_such_counter")

    def test_unknown_attribute_still_raises(self, result):
        with pytest.raises(AttributeError):
            result.report.no_such_counter


class TestDeprecatedAccess:
    def test_reconciliation_delegation_is_gone(self, result):
        # The deprecated count/repaired_count/render delegation was
        # removed: reconciliation conflicts live only on
        # result.reconciliation now.
        for method in ("count", "repaired_count", "render"):
            with pytest.raises(AttributeError):
                getattr(result.report, method)
        assert result.reconciliation.count() >= 0
