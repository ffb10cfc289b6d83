"""Quantifies the section-5 comparative discussion: the four
integration architectures on the Figure-5(b) workload.

Expected shape (paper section 5 + Table 1):

- the warehouse answers fastest but pays an up-front ETL and goes
  stale on source updates;
- hypertext navigation needs a number of user actions proportional to
  the corpus (no automated large-scale analysis);
- the unmediated multidatabase ships whole extents to the middleware
  and does not reconcile;
- ANNODA answers in one automated query, reconciled and always fresh.
"""


import pytest

from benchmarks.conftest import write_artifact
from repro.baselines import (
    HypertextNavigationSystem,
    K2KleisliSystem,
    WarehouseSystem,
)
from repro.core import Annoda
from repro.evaluation import AnnodaSystem
from repro.evaluation.metrics import answer_quality
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.util.text import table
from repro.util.timer import Timer
from repro.wrappers import default_wrappers

SIZES = (100, 300, 1000)


def _corpus(size):
    return AnnotationCorpus.generate(
        seed=7,
        parameters=CorpusParameters(
            loci=size,
            go_terms=max(30, size // 2),
            omim_entries=max(10, size // 4),
        ),
    )


def _systems(corpus):
    annoda = Annoda()
    annoda.corpus = corpus
    for wrapper in default_wrappers(corpus):
        annoda.add_source(wrapper)
    warehouse = WarehouseSystem(default_wrappers(corpus))
    warehouse.etl()
    return {
        "hypertext": HypertextNavigationSystem(default_wrappers(corpus)),
        "multidatabase": K2KleisliSystem(default_wrappers(corpus)),
        "warehouse": warehouse,
        "annoda": AnnodaSystem(annoda),
    }


@pytest.fixture(scope="module")
def medium_systems():
    corpus = _corpus(300)
    return corpus, _systems(corpus)


@pytest.mark.parametrize(
    "system_name", ["hypertext", "multidatabase", "warehouse", "annoda"]
)
def test_figure5b_workload_latency(benchmark, medium_systems, system_name):
    corpus, systems = medium_systems
    system = systems[system_name]
    answer, _effort = benchmark.pedantic(
        system.integrated_gene_disease_query, rounds=3, iterations=1
    )
    # On a clean corpus every architecture gets the right answer; the
    # differences are cost and freshness, not correctness.
    assert answer == corpus.ground_truth.figure5b_expected()


def test_architecture_comparison_artifact(benchmark, results_dir):
    """The full sweep: who wins, by what, where the crossover is."""
    headers = [
        "loci",
        "system",
        "seconds",
        "recall",
        "rows shipped",
        "user actions",
        "fresh?",
    ]

    def sweep():
        collected = []
        for size in SIZES:
            corpus = _corpus(size)
            systems = _systems(corpus)
            truth = corpus.ground_truth.figure5b_expected()
            for name, system in systems.items():
                with Timer() as timer:
                    answer, effort = (
                        system.integrated_gene_disease_query()
                    )
                elapsed = timer.elapsed
                quality = answer_quality(answer, truth)
                collected.append(
                    [
                        size,
                        name,
                        f"{elapsed:.4f}",
                        f"{quality['recall']:.2f}",
                        effort.get("rows_shipped", "-"),
                        effort.get("user_actions", "-"),
                        "no (stale on update)"
                        if name == "warehouse"
                        else "yes",
                    ]
                )
        return collected

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = table(headers, rows)
    artifact = (
        "Architecture comparison on the Figure-5(b) workload\n"
        "(clean corpus: all correct; cost and freshness differ)\n\n"
        + rendered
    )
    write_artifact(results_dir, "architectures.txt", artifact)
    print()
    print(artifact)

    # Shape assertions: hypertext's manual cost scales with the corpus.
    hypertext_actions = [
        int(row[5]) for row in rows if row[1] == "hypertext"
    ]
    assert hypertext_actions[0] < hypertext_actions[-1]
    assert hypertext_actions[-1] >= SIZES[-1]


def test_warehouse_pays_etl_and_staleness(benchmark, results_dir):
    """Freshness trade-off: warehouse query is fast, but after a source
    update it is wrong until the next (costly) ETL; ANNODA reflects the
    update immediately."""
    from repro.sources.locuslink import LocusRecord

    corpus = _corpus(300)
    systems = _systems(corpus)
    warehouse = systems["warehouse"]
    annoda = systems["annoda"]

    def freshness_experiment():
        new_locus = LocusRecord(
            locus_id=900001,
            organism="Homo sapiens",
            symbol="FRESH9",
            go_ids=[corpus.go.keys()[5]],
        )
        corpus.locuslink.add(new_locus)
        try:
            stale_answer, stale_effort = (
                warehouse.integrated_gene_disease_query()
            )
            fresh_answer, _ = annoda.integrated_gene_disease_query()
            with Timer() as timer:
                warehouse.etl()
            etl_cost = timer.elapsed
            reloaded_answer, _ = warehouse.integrated_gene_disease_query()
        finally:
            corpus.locuslink.remove(900001)
            warehouse.etl()
        return (
            stale_answer, stale_effort, fresh_answer, etl_cost,
            reloaded_answer,
        )

    (stale_answer, stale_effort, fresh_answer, etl_seconds,
     reloaded_answer) = benchmark.pedantic(
        freshness_experiment, rounds=1, iterations=1
    )
    assert 900001 not in stale_answer
    assert stale_effort["stale"] is True
    assert 900001 in fresh_answer
    assert 900001 in reloaded_answer
    artifact = (
        "Freshness experiment (300 loci):\n"
        f"  warehouse answer after source update: STALE "
        f"(missed the new locus)\n"
        f"  ANNODA answer after source update: fresh\n"
        f"  warehouse re-ETL cost: {etl_seconds:.4f}s\n"
    )
    write_artifact(results_dir, "freshness.txt", artifact)
    print()
    print(artifact)
