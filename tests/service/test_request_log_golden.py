"""Golden request-log conformance: the service's flight record, pinned.

Extends the PR 5 golden-trace suite to the service layer: for every
catalog question, a fresh service over the same seeded five-source
federation answers one traced request, and the structured request-log
record's *shape* (:func:`repro.service.log_record_shape` — volatile
request ids and timings normalized out, the embedded trace shape kept)
must match a checked-in golden JSON document.

Run ``pytest --regen-golden tests/service/test_request_log_golden.py``
to rewrite the goldens after an intentional behaviour change.
"""

import json
from pathlib import Path

import pytest

from repro import Annoda
from repro.service import (
    AnnodaService,
    ServiceConfig,
    ServiceRequest,
    log_record_shape,
)
from repro.sources.corpus import CorpusParameters
from repro.wrappers import PubmedLikeWrapper, SwissProtLikeWrapper

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Identical corpus to the golden-trace suite, so the embedded trace
#: shapes stay comparable across the two suites.
SEED = 13
PARAMETERS = dict(loci=120, go_terms=80, omim_entries=50,
                  conflict_rate=0.2)

#: Question name -> the ServiceRequest posed for it.
REQUESTS = {
    "figure5b": ServiceRequest(question="figure5b", trace=True),
    "disease_genes": ServiceRequest(question="disease_genes", trace=True),
    "unannotated_genes": ServiceRequest(
        question="unannotated_genes", trace=True
    ),
    "genes_by_annotation_keyword": ServiceRequest(
        question="genes_by_annotation_keyword",
        params={"keyword": "binding"},
        trace=True,
    ),
    "genes_under_term": ServiceRequest(
        question="genes_under_term",
        params={"go_id": "GO:0000002"},
        trace=True,
    ),
    "cited_disease_genes": ServiceRequest(
        question="cited_disease_genes", trace=True
    ),
}


def build_federation():
    """The golden-trace suite's five-source federation, verbatim."""
    annoda = Annoda.with_default_sources(
        seed=SEED, parameters=CorpusParameters(**PARAMETERS)
    )
    annoda.add_source(
        PubmedLikeWrapper(annoda.corpus.make_citation_store(count=60))
    )
    annoda.add_source(
        SwissProtLikeWrapper(annoda.corpus.make_protein_store())
    )
    return annoda


def run_service_request(name):
    """(response, log-record shape) for one catalog question on a
    fresh single-worker service."""
    service = AnnodaService(
        build_federation(), ServiceConfig(queue_capacity=4, workers=1)
    )
    try:
        response = service.ask(REQUESTS[name])
        record = service.request_log.last()
    finally:
        service.shutdown(drain=True, timeout=60)
    assert record is not None
    return response, log_record_shape(record)


def golden_path(name):
    return GOLDEN_DIR / f"request_log_{name}.json"


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_request_log(name, regen_golden):
    response, shape = run_service_request(name)

    # The contract, independent of the golden file: a traced service
    # request logs a 200 with the full span-tree shape embedded.
    assert response.status == 200
    assert shape["http_status"] == 200
    assert shape["outcome"] == "ok"
    assert shape["degraded_sources"] == []
    assert shape["trace"] is not None
    assert shape["trace"]["name"] == "query"
    assert shape["gene_count"] == response.body["result"]["gene_count"]

    path = golden_path(name)
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(shape, indent=2, sort_keys=True) + "\n"
        )
        return
    assert path.exists(), (
        f"golden file {path} is missing; run pytest --regen-golden "
        "tests/service/test_request_log_golden.py"
    )
    expected = json.loads(path.read_text())
    assert shape == expected


def test_request_log_shape_is_deterministic_across_runs():
    """Two fresh services produce byte-identical record shapes."""
    _, first = run_service_request("figure5b")
    _, second = run_service_request("figure5b")
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_every_catalog_question_has_a_request_log_golden():
    from repro.questions.catalog import QuestionCatalog

    assert set(QuestionCatalog.all_names()) <= set(REQUESTS)
