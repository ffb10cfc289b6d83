"""Concurrent native queries against a store updated through the store.

Scanner threads query one LocusLink store while a writer thread takes
loci out and puts them back with ``remove``/``add``.  Every native
query reads one version's extent, so each answer — full scan, index
hit or filtered scan — must equal a plain filter over the fresh
``records()`` of exactly one version the writer produced, never a mix
of two.  CI runs this module under the race checker too.
"""

import sys
import threading
import time

from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition, _evaluate

QUERIES = (
    (),
    (NativeCondition("Organism", "=", "Homo sapiens"),),
    (NativeCondition("Description", "contains", "protein"),),
    (
        NativeCondition("Organism", "=", "Mus musculus"),
        NativeCondition("LocusID", ">", 1100),
    ),
)

ROUNDS = 2
SCANNERS = 3


def _answer(records, conditions):
    return repr(
        [
            dict(record)
            for record in records
            if all(
                _evaluate(record.get(condition.field), condition)
                for condition in conditions
            )
        ]
    )


def test_every_scan_sees_exactly_one_version():
    store = AnnotationCorpus.generate(
        seed=31,
        parameters=CorpusParameters(loci=200, go_terms=40, omim_entries=20),
    ).locuslink
    churned = store.locus_ids()[::5]
    contents = [store.records()]
    answers = []
    failures = []
    writer_done = threading.Event()

    def writer():
        try:
            for _ in range(ROUNDS):
                for locus_id in churned:
                    record = store.get(locus_id)
                    store.remove(locus_id)
                    contents.append(store.records())
                    time.sleep(0.0005)  # let the scanners see this version
                    store.add(record)
                    contents.append(store.records())
                    time.sleep(0.0005)
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)
        finally:
            writer_done.set()

    def scanner():
        seen = []
        try:
            while not writer_done.is_set():
                for position, conditions in enumerate(QUERIES):
                    for use_index in (True, False):
                        hits = store.native_query(
                            conditions, use_index=use_index
                        )
                        seen.append((position, _answer(hits, ())))
        except Exception as error:
            failures.append(error)
        answers.extend(seen)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scanner) for _ in range(SCANNERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous_interval)

    assert not failures, failures
    assert not any(thread.is_alive() for thread in threads)
    assert len(contents) == 1 + 2 * ROUNDS * len(churned)
    expected = [
        {_answer(records, conditions) for records in contents}
        for conditions in QUERIES
    ]
    assert answers
    for position, answer in answers:
        assert answer in expected[position], QUERIES[position]
