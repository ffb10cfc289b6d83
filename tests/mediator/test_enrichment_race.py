"""A shared enrichment entry claims the whole source only once it holds
every record.

The artifact store hands one ``enrichment`` entry per source version to
every execution, and executions fill it outside the store lock.  A link
source that cannot take ``in`` is fetched whole, after which the entry
is marked ``complete`` and later executions read it without fetching.
This pins the interleaving where a second execution reads the entry
while the first is still translating the records it fetched: the
second execution must not take the still-empty index as the whole
source.
"""

import threading

from repro.mediator import GlobalQuery, LinkConstraint, Mediator
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.wrappers import GoWrapper, LocusLinkWrapper, OmimWrapper

QUERY = GlobalQuery(
    anchor_source="LocusLink",
    links=(LinkConstraint("GO", "include", via="AnnotationID"),),
)


class FullFetchGoWrapper(GoWrapper):
    """GO behind a source that cannot evaluate ``in``, so enrichment
    takes the full-fetch path."""

    def supports(self, label, op):
        return op != "in" and super().supports(label, op)


def build_mediator(corpus):
    mediator = Mediator()
    mediator.register_wrapper(LocusLinkWrapper(corpus.locuslink))
    mediator.register_wrapper(FullFetchGoWrapper(corpus.go))
    mediator.register_wrapper(OmimWrapper(corpus.omim))
    return mediator


def test_racing_execution_never_reads_a_half_filled_entry():
    corpus = AnnotationCorpus.generate(
        seed=5, parameters=CorpusParameters(loci=60)
    )
    expected = build_mediator(corpus).query(QUERY).view.details["GO"]
    assert expected, "the serial answer must carry GO link details"

    mediator = build_mediator(corpus)
    translate = mediator.mapping_module.translate_record
    paused = threading.Event()
    resume = threading.Event()
    answers = {}

    def pausing_translate(source_name, record, wrapper):
        # Execution A stops inside its first GO translation, after its
        # full fetch returned and before its records reach the entry.
        if (
            source_name == "GO"
            and threading.current_thread() is racer
            and not paused.is_set()
        ):
            paused.set()
            resume.wait(timeout=30)
        return translate(source_name, record, wrapper)

    mediator.mapping_module.translate_record = pausing_translate

    def run_first():
        answers["A"] = mediator.query(QUERY, use_cache=False)

    racer = threading.Thread(target=run_first)
    racer.start()
    try:
        assert paused.wait(timeout=30), "execution A never reached GO"
        answers["B"] = mediator.query(QUERY, use_cache=False)
    finally:
        resume.set()
        racer.join(timeout=30)
    assert not racer.is_alive()
    assert answers["B"].view.details["GO"] == expected
    assert answers["A"].view.details["GO"] == expected
