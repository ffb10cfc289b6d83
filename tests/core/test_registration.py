"""Registration from a snapshot copies no store.

``Annoda.from_directory`` parses each flat file, adopts its persisted
indexes and registers its wrapper, whose MDSM schema matching reads
five samples per field.  Those samples come from one lazy pass over
the store's record objects, so the load never calls
``DataSource.records``: each store's extent is built by its first
fetch.  The samples and the correspondence sets are pinned by digest.
"""

import hashlib

import pytest

from repro.core.annoda import Annoda
from repro.sources.base import DataSource
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.sources.persistence import save_corpus

#: The 2k profile-benchmark corpus (seed 7, conflict rate 0.2) and its
#: citation store.
PARAMETERS = CorpusParameters(
    loci=2000, go_terms=500, omim_entries=250, conflict_rate=0.2
)
CITATIONS = 400

#: Source -> (digest of its schema elements with their samples, digest
#: of its MDSM correspondence set).
PINNED = {
    "LocusLink": (
        "637e080fcad89502ad8bbff25b466a875144fb052ee1c540d0b99b98626cfc62",
        "5bb7d1f86d10166a6d999ef8cdc8675da6adeb954c414cf12e8569552d031c86",
    ),
    "GO": (
        "276966f1cbf125cef42fc42d269021f848857b3ddb1cc6eaea9f77c9f42acf25",
        "d69e4381255064e1f6c9681b32c663922711e9e84f7e341c0f6a0a78b71f0249",
    ),
    "OMIM": (
        "2885a4cb60e4d7ac7fa460a608dc167bc98e15047a7b47f0a7e29f7bc1651892",
        "a49d295cd1885cf0ca8aaf72e58d2b2364a7f72153048f10f946ba891d8bf5d7",
    ),
    "PubMed": (
        "82fa045c9348d76ac836bfa9926fdd7d33c5682a0cad8dd5b971024f963112e5",
        "a6e7960fd0a4f136189f71482e28ec16468b3b56895b691268ac0fb76f67f66b",
    ),
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    corpus = AnnotationCorpus.generate(seed=7, parameters=PARAMETERS)
    citations = corpus.make_citation_store(count=CITATIONS)
    directory = tmp_path_factory.mktemp("snapshot")
    save_corpus(corpus, directory, citations=citations)
    return directory


@pytest.fixture()
def extent_builds(monkeypatch):
    """The source names ``DataSource.records`` is called for, in order
    (the extent builder is its only caller)."""
    calls = []
    records = DataSource.records

    def counting(store):
        calls.append(store.name)
        return records(store)

    monkeypatch.setattr(DataSource, "records", counting)
    return calls


class TestRegistrationFromSnapshot:
    def test_load_builds_no_extent_until_the_first_fetch(
        self, snapshot, extent_builds
    ):
        annoda = Annoda.from_directory(snapshot)
        assert annoda.sources() == list(PINNED)
        assert extent_builds == []
        for name in annoda.sources():
            store = annoda.mediator.wrapper(name).source
            store.native_query()
            store.native_query()
        assert extent_builds == list(PINNED)

    def test_samples_and_correspondences_are_pinned(self, snapshot):
        annoda = Annoda.from_directory(snapshot)
        mapping = annoda.mediator.mapping_module
        digests = {
            name: (
                _digest(
                    [
                        (
                            element.name,
                            element.oem_type.value,
                            element.multivalued,
                            element.description,
                            element.samples,
                        )
                        for element in annoda.mediator.wrapper(
                            name
                        ).schema_elements()
                    ]
                ),
                _digest(
                    [
                        (c.local_name, c.global_name, c.score)
                        for c in mapping.correspondences(name)
                    ]
                ),
            )
            for name in annoda.sources()
        }
        assert digests == PINNED
