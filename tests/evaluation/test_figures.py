"""Tests for the figure-regeneration harness."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import Annoda
from repro.evaluation import FigureGenerator
from repro.sources.corpus import CorpusParameters

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: SHA-256 of ``python -m repro --loci 400 figures`` stdout.  Figure
#: 5(b) renders answer rows, so this pins the rows, the OEM view and
#: every other figure byte for byte.
FIGURES_DIGEST = (
    "663059321c2abe94284f9c1bd99464b0a4203064ca3e52d19106b1fade1b8e3e"
)


@pytest.fixture(scope="module")
def figures():
    annoda = Annoda.with_default_sources(
        seed=47,
        parameters=CorpusParameters(loci=60, go_terms=40, omim_entries=20),
    )
    return FigureGenerator(annoda)


class TestFigure1:
    def test_components_present(self, figures):
        text = figures.figure1()
        assert "Mediator" in text
        assert "Mapping module" in text
        assert "MDSM" in text
        assert "Hungarian" in text
        assert "Wrapper[LocusLink]" in text
        assert "Wrapper[GO]" in text
        assert "Wrapper[OMIM]" in text


class TestFigure2And3:
    def test_figure2_lists_vertices_and_edges(self, figures):
        text = figures.figure2()
        assert "objects (vertices):" in text
        assert "attributes (edges):" in text
        assert "--LocusID-->" in text

    def test_figure3_layout(self, figures):
        text = figures.figure3()
        assert text.startswith("LocusLink &1 Complex")
        assert "LocusID &2 Integer" in text
        assert "Links" in text

    def test_figures_deterministic(self, figures):
        assert figures.figure3() == figures.figure3()


class TestFigure4:
    def test_gml_rendering(self, figures):
        text = figures.figure4()
        assert text.startswith("ANNODA-GML &1 Complex")
        assert "Source" in text
        assert "'LocusLink'" in text


class TestFigure5:
    def test_figure5a(self, figures):
        text = figures.figure5a()
        assert "ANNODA query interface" in text
        assert "[include] GO" in text

    def test_figure5b(self, figures):
        text = figures.figure5b()
        assert "Annotation integrated view" in text
        assert "GO:" in text

    def test_figure5c(self, figures):
        text = figures.figure5c()
        assert "object" in text
        assert "Web links" in text

    def test_all_figures(self, figures):
        rendered = figures.all_figures()
        assert set(rendered) == {
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5a",
            "figure5b",
            "figure5c",
        }
        assert all(rendered.values())


def test_figures_command_output_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "--loci", "400", "figures"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert hashlib.sha256(completed.stdout).hexdigest() == FIGURES_DIGEST
