"""Tests for reconciliation policies and the reconciler."""

import pytest

from repro.mediator import ReconciliationPolicy, Reconciler
from repro.mediator.reconcile import ReconciliationReport
from repro.sources.go import GoOntology, GoTerm
from repro.sources.omim import OmimRecord, OmimStore
from repro.wrappers import GoWrapper, OmimWrapper


@pytest.fixture
def go_wrapper():
    return GoWrapper(
        GoOntology(
            [
                GoTerm("GO:0000001", "root", "molecular_function"),
                GoTerm(
                    "GO:0000002",
                    "kinase activity",
                    "molecular_function",
                    is_a=["GO:0000001"],
                ),
                GoTerm(
                    "GO:0000003",
                    "old term",
                    "molecular_function",
                    is_a=["GO:0000001"],
                    obsolete=True,
                ),
            ]
        )
    )


@pytest.fixture
def omim_wrapper():
    return OmimWrapper(
        OmimStore(
            [
                OmimRecord(100100, "DISEASE A", gene_symbols=["FOSB"]),
                OmimRecord(100200, "DISEASE B", gene_symbols=["fosb"]),
                OmimRecord(100300, "DISEASE C", gene_symbols=["FOSB-ALT1"]),
                OmimRecord(100400, "DISEASE D", gene_symbols=["OTHER1"]),
            ]
        )
    )


class TestAnnotationValidation:
    def test_valid_ids_pass_untouched(self, go_wrapper):
        report = ReconciliationReport()
        reconciler = Reconciler()
        valid = reconciler.valid_annotation_ids(
            1, ["GO:0000002"], go_wrapper, report
        )
        assert valid == ["GO:0000002"]
        assert report.count() == 0

    def test_dangling_dropped_and_reported(self, go_wrapper):
        report = ReconciliationReport()
        valid = Reconciler().valid_annotation_ids(
            1, ["GO:0000002", "GO:9999999"], go_wrapper, report
        )
        assert valid == ["GO:0000002"]
        assert report.count("dangling_annotation") == 1
        assert report.repaired_count() == 1

    def test_obsolete_dropped_and_reported(self, go_wrapper):
        report = ReconciliationReport()
        valid = Reconciler().valid_annotation_ids(
            1, ["GO:0000003"], go_wrapper, report
        )
        assert valid == []
        assert report.count("obsolete_annotation") == 1

    def test_naive_policy_passes_everything(self, go_wrapper):
        report = ReconciliationReport()
        reconciler = Reconciler(ReconciliationPolicy.naive())
        valid = reconciler.valid_annotation_ids(
            1, ["GO:0000003", "GO:9999999"], go_wrapper, report
        )
        assert valid == ["GO:0000003", "GO:9999999"]
        # Conflicts are still observed, just not repaired.
        assert report.count() == 2
        assert report.repaired_count() == 0


class TestDiseaseValidation:
    def test_dangling_mim_dropped(self, omim_wrapper):
        report = ReconciliationReport()
        valid = Reconciler().valid_disease_ids(
            1, [100100, 999999], omim_wrapper, report
        )
        assert valid == [100100]
        assert report.count("dangling_disease") == 1


class TestSymbolJoin:
    def test_reconciled_join_finds_all_variants(self, omim_wrapper):
        report = ReconciliationReport()
        found = Reconciler().disease_ids_via_symbols(
            1, "FOSB", ["FOSB-ALT1"], omim_wrapper, report
        )
        # The exact symbol, its case variant and the alias; never the
        # unrelated OTHER1.
        assert found == {100100, 100200, 100300}
        # Two repairs: the case variant and the alias.
        assert report.count("symbol_case") == 1
        assert report.count("symbol_alias") == 1

        # An alias OMIM lists in another case is an alias repair.
        report = ReconciliationReport()
        found = Reconciler().disease_ids_via_symbols(
            2, "BRCA2", ["fosb-alt1"], omim_wrapper, report
        )
        assert found == {100300}
        assert report.count("symbol_alias") == 1
        assert report.count() == 1

    def test_naive_join_finds_exact_only(self, omim_wrapper):
        report = ReconciliationReport()
        reconciler = Reconciler(ReconciliationPolicy.naive())
        found = reconciler.disease_ids_via_symbols(
            1, "FOSB", ["FOSB-ALT1"], omim_wrapper, report
        )
        assert found == {100100}
        # Neither an alias nor a case variant of one matches.
        assert reconciler.disease_ids_via_symbols(
            2, "BRCA2", ["fosb-alt1", "FOSB-ALT1"], omim_wrapper, report
        ) == set()
        assert report.count() == 0


class TestReport:
    def test_counting_and_rendering(self):
        report = ReconciliationReport()
        report.record("symbol_case", 1, "detail", True)
        report.record("symbol_case", 2, "detail", True)
        report.record("dangling_disease", 3, "detail", False)
        assert report.count() == 3
        assert report.count("symbol_case") == 2
        assert report.repaired_count() == 2
        assert report.kinds() == ["dangling_disease", "symbol_case"]
        assert "3 conflicts" in report.render()

    def test_empty_report_renders(self):
        assert "no conflicts" in ReconciliationReport().render()
