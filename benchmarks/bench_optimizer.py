"""Ablation: multi-system query optimization (DESIGN.md decision 4).

Requirement 3 of the paper: *"the system should serve a query
optimization across multiple systems."*  Measures what selection
pushdown and link-fetch pruning buy, holding the answer fixed (the
equivalence is asserted): rows shipped from sources, mediator residual
evaluations, and wall time.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.core import Annoda
from repro.mediator import GlobalQuery, LinkConstraint, OptimizerOptions
from repro.mediator.decompose import Condition
from repro.util.text import table
from repro.wrappers import default_wrappers

CONFIGS = {
    "full optimizer": OptimizerOptions(),
    "no pushdown": OptimizerOptions(enable_pushdown=False),
    "no pruning": OptimizerOptions(enable_pruning=False),
    "no optimization": OptimizerOptions(
        enable_pushdown=False, enable_pruning=False, enable_ordering=False
    ),
}

#: The future-work strategy is measured on its natural workload (a
#: highly selective link) separately, against the same plan without it.
SEMIJOIN_CONFIGS = {
    "scan anchor": OptimizerOptions(),
    "semijoin anchor": OptimizerOptions(enable_semijoin=True),
}


def _query():
    return GlobalQuery(
        anchor_source="LocusLink",
        conditions=(Condition("Species", "=", "Homo sapiens"),),
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(
                    Condition("Aspect", "=", "molecular_function"),
                ),
            ),
            LinkConstraint("OMIM", "exclude", via="DiseaseID"),
        ),
    )


def _annoda_with(corpus, options):
    annoda = Annoda()
    annoda.corpus = corpus
    annoda.mediator.optimizer_options = options
    for wrapper in default_wrappers(corpus):
        annoda.add_source(wrapper)
    return annoda


@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_optimizer_config_latency(benchmark, corpus, config_name):
    annoda = _annoda_with(corpus, CONFIGS[config_name])
    query = _query()
    result = benchmark(
        annoda.ask, query, enrich_links=False, use_cache=False
    )
    assert len(result) > 0


def test_optimizer_ablation_artifact(benchmark, corpus, results_dir):
    def run_ablation():
        rows = []
        reference_answer = None
        for name, options in CONFIGS.items():
            annoda = _annoda_with(corpus, options)
            result = annoda.ask(_query(), enrich_links=False)
            answer = set(result.gene_ids())
            if reference_answer is None:
                reference_answer = answer
            # Optimization never changes the answer.
            assert answer == reference_answer
            rows.append(
                [
                    name,
                    result.report.counters["rows"],
                    result.report.counters["residual_evaluations"],
                    f"{result.report.wall_seconds:.4f}",
                    f"{annoda.mediator.plan(_query()).estimated_cost:.0f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rendered = table(
        [
            "configuration",
            "rows fetched",
            "residual evals",
            "seconds",
            "est. cost",
        ],
        rows,
    )
    artifact = (
        "Optimizer ablation on the conditioned Figure-5(b) query\n"
        "(identical answers asserted across configurations)\n\n" + rendered
    )
    write_artifact(results_dir, "optimizer_ablation.txt", artifact)
    print()
    print(artifact)

    by_name = {row[0]: row for row in rows}
    # Pushdown cuts rows shipped; disabling everything ships the most.
    assert (
        by_name["full optimizer"][1] < by_name["no pushdown"][1]
    )
    assert (
        by_name["full optimizer"][1] <= by_name["no optimization"][1]
    )
    # Without pushdown the mediator does the filtering itself.
    assert (
        by_name["no pushdown"][2] > by_name["full optimizer"][2]
    )


def test_semijoin_extension_artifact(benchmark, corpus, results_dir):
    """The future-work optimizer: a selective link drives the anchor."""
    selective = GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO",
                "include",
                via="AnnotationID",
                conditions=(Condition("Title", "contains", "kinase"),),
            ),
        ),
    )

    def run():
        rows = []
        reference = None
        for name, options in SEMIJOIN_CONFIGS.items():
            annoda = _annoda_with(corpus, options)
            result = annoda.ask(selective, enrich_links=False)
            answer = set(result.gene_ids())
            if reference is None:
                reference = answer
            assert answer == reference
            rows.append(
                [
                    name,
                    result.report.rows_fetched.get("LocusLink", 0),
                    result.report.counters["rows"],
                    f"{result.report.wall_seconds:.4f}",
                    len(answer),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = table(
        ["strategy", "anchor rows", "total rows", "seconds", "answers"],
        rows,
    )
    artifact = (
        "Semijoin extension on a selective-link query "
        "(GO Title contains 'kinase')\n\n" + rendered
    )
    write_artifact(results_dir, "semijoin_extension.txt", artifact)
    print()
    print(artifact)

    by_name = {row[0]: row for row in rows}
    assert by_name["semijoin anchor"][1] < by_name["scan anchor"][1]
