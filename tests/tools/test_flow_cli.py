"""The ``python -m repro.tools.flow`` CLI."""

from pathlib import Path

from repro.tools.flow.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture(name):
    return str(FIXTURES / name)


class TestCli:
    def test_bad_fixture_exits_one(self, capsys):
        code = main([
            fixture("ann008_bad.py"),
            "--include-fixtures", "--select", "ANN008",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "ANN008" in out
        assert "ann008_bad.py" in out

    def test_good_fixture_exits_zero(self, capsys):
        code = main([
            fixture("ann008_good.py"),
            "--include-fixtures", "--select", "ANN008",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_per_file_codes_are_rejected(self, capsys):
        assert main(["--select", "ANN001", fixture("ann008_good.py")]) == 2
        err = capsys.readouterr().err
        assert "per-file rules" in err
        assert "repro.tools.lint" in err

    def test_unknown_codes_are_rejected(self, capsys):
        assert main(["--select", "ANN999", fixture("ann008_good.py")]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_no_files_is_a_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2

    def test_list_rules_names_every_interprocedural_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("ANN007", "ANN008", "ANN009", "ANN010"):
            assert code in out

    def test_head_is_clean_with_an_empty_baseline(self):
        # The gate CI runs: no findings over the shipped source tree.
        assert main([str(REPO_ROOT / "src" / "repro")]) == 0
