"""What the profile benchmark runs: corpus scales, workloads, requests.

Shared by the orchestrator (``run.py``), the input preparation
(``prepare.py``) and the measuring process (``workloads.py``).  This
module imports nothing from ``repro`` so the orchestrator stays a thin
process that never holds a federation itself.
"""

import bisect
import hashlib
import json
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
PINS_FILE = HERE / "pins.json"

#: Every corpus carries injected cross-source conflicts, so the
#: reconciler always has repairs to make.
CONFLICT_RATE = 0.2

#: Window length of ``--quick`` runs (the harness self-test).
QUICK_SECONDS = 3

#: Untraced runs per workload in all-workload mode (one with
#: ``--quick``): seeds ``seed`` to ``seed + FULL_RUNS - 1``.
FULL_RUNS = 10


@dataclass(frozen=True)
class Scale:
    """One corpus size: ``CorpusParameters`` counts plus the size of
    the PubMed-like citation store plugged in beside them."""

    loci: int
    go_terms: int
    omim_entries: int
    citations: int

    def parameters(self):
        return {
            "loci": self.loci,
            "go_terms": self.go_terms,
            "omim_entries": self.omim_entries,
            "conflict_rate": CONFLICT_RATE,
        }


SCALES = {
    "10k": Scale(loci=10000, go_terms=2500, omim_entries=1250,
                 citations=2000),
    "20k": Scale(loci=20000, go_terms=5000, omim_entries=2500,
                 citations=4000),
    "2k": Scale(loci=2000, go_terms=500, omim_entries=250, citations=400),
    "100k": Scale(loci=100000, go_terms=25000, omim_entries=12500,
                  citations=20000),
    "quick": Scale(loci=500, go_terms=125, omim_entries=62, citations=100),
}


#: Workload name -> (corpus scale, corpus scale with ``--quick``);
#: ``BENCHMARK.json`` says why each workload exists.
WORKLOADS = {
    "catalog-10k": ("10k", "quick"),
    "service-zipf-10k": ("10k", "quick"),
    "freshness-2k": ("2k", "quick"),
    "coldstart-20k": ("20k", "quick"),
    "coldstart-100k": ("100k", "quick"),
}

#: Run once, traced, by all-workload mode and never by ``BENCHMARK.json``:
#: one restart and pass at 100k loci takes about a minute and 1.2 GiB.
PROFILE_ONLY = ("coldstart-100k",)


def scale_of(workload, quick=False):
    return WORKLOADS[workload][1 if quick else 0]


#: The six catalog questions the golden traces pin, as
#: ``(QuestionCatalog method, keyword params)``, in the order the
#: in-process workloads ask them.
CATALOG = (
    ("figure5b", {}),
    ("disease_genes", {}),
    ("unannotated_genes", {}),
    ("genes_by_annotation_keyword", {"keyword": "binding"}),
    ("genes_under_term", {"go_id": "GO:0000002"}),
    ("cited_disease_genes", {}),
)

#: Zipf exponent of the service workload's request popularity; rank 1
#: is the first entry of ``CATALOG``.
ZIPF_EXPONENT = 1.1

#: Strata per block of the Zipf stream (see :func:`zipf_stream`).
ZIPF_BLOCK = 16

#: A LocusLink curation update follows every this many answers in the
#: freshness workload.
UPDATE_EVERY = 4


def request_key(name, params):
    """The request's stable name, e.g. ``genes_under_term(go_id='GO:0000002')``
    (the same rendering the service uses for its request log)."""
    if not params:
        return name
    rendered = ", ".join(
        f"{key}={value!r}" for key, value in sorted(params.items())
    )
    return f"{name}({rendered})"


def answer_digest(gene_ids):
    """SHA-256 over the sorted gene ids: the pinned form of an answer."""
    text = ",".join(str(gene_id) for gene_id in sorted(gene_ids))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def zipf_stream(rng, items, exponent=ZIPF_EXPONENT, block=ZIPF_BLOCK):
    """Endless Zipf-distributed indexes into ``items`` ranks.

    Draws are stratified: each block of ``block`` draws takes one
    uniform from each of ``block`` equal slices of [0, 1), shuffled by
    ``rng``.  Every window therefore sees close to the exact Zipf mix,
    which keeps run-to-run spread down while the order stays seeded.
    """
    weights = [1.0 / rank ** exponent for rank in range(1, items + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    while True:
        strata = [(slot + rng.random()) / block for slot in range(block)]
        rng.shuffle(strata)
        for uniform in strata:
            yield min(bisect.bisect_left(cumulative, uniform), items - 1)


def load_benchmark():
    """The parsed root ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def load_pins(scale_name, seed):
    """Pinned answer digests for ``(scale, seed)``, or ``{}``."""
    if not PINS_FILE.is_file():
        return {}
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    if pins.get("seed") != seed:
        return {}
    return dict(pins.get("scales", {}).get(scale_name, {}))
