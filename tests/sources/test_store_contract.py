"""The keyed-store contract every source shares through ``DataSource``.

Each of the five stores is only its declarations, so one parametrized
suite checks the behaviour they all inherit: duplicate keys, version
bumps, key order, the flat-file round trip, and that a version-keyed
equality index never outlives the version it was built at, and that
a fetched record is read-only all the way down.  GO adds its is_a
graph, which must follow ``remove`` too.
"""

import copy
import gc

import pytest

from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.base import NativeCondition
from repro.util.errors import DataFormatError

CORPUS = AnnotationCorpus.generate(
    seed=5,
    parameters=CorpusParameters(loci=30, go_terms=20, omim_entries=10),
)

SOURCES = {
    "LocusLink": CORPUS.locuslink,
    "GO": CORPUS.go,
    "OMIM": CORPUS.omim,
    "PubMed": CORPUS.make_citation_store(count=12),
    "SwissProt": CORPUS.make_protein_store(),
}


#: Each store's multi-valued fields: record field -> record attribute.
MULTI_VALUED = {
    "LocusLink": {
        "Aliases": "aliases",
        "GoIDs": "go_ids",
        "OmimIDs": "omim_ids",
        "PubmedIDs": "pubmed_ids",
    },
    "GO": {"IsA": "is_a", "Synonyms": "synonyms"},
    "OMIM": {"GeneSymbols": "gene_symbols"},
    "PubMed": {"LocusIDs": "locus_ids"},
    "SwissProt": {"Keywords": "keywords"},
}


def split(name):
    """A fresh store of ``name`` holding every record but one, and that
    record (for GO a leaf term, so the rest stays a valid ontology)."""
    source = SOURCES[name]
    records = source.all_records()
    if name == "GO":
        parents = {parent for term in records for parent in term.is_a}
        extra = next(
            term
            for term in reversed(records)
            if term.is_a and term.go_id not in parents
        )
    else:
        extra = records[0]
    rest = [record for record in records if record is not extra]
    return type(source)(rest), extra


def key_of(store, record):
    return record.as_dict()[store.FIELDS[0]]


@pytest.fixture(params=sorted(SOURCES))
def name(request):
    return request.param


class TestStoreContract:
    def test_duplicate_key_names_the_source(self, name):
        store, extra = split(name)
        store.add(extra)
        with pytest.raises(DataFormatError) as excinfo:
            store.add(extra)
        assert excinfo.value.source_name == name
        assert name in str(excinfo.value)

    def test_add_and_remove_bump_version(self, name):
        store, extra = split(name)
        before = store.version
        store.add(extra)
        assert store.version == before + 1
        store.remove(key_of(store, extra))
        assert store.version == before + 2
        assert store.get(key_of(store, extra)) is None
        with pytest.raises(DataFormatError):
            store.remove(key_of(store, extra))
        assert store.version == before + 2

    def test_records_in_key_order(self, name):
        store, extra = split(name)
        store.add(extra)  # inserted last, whatever its key
        keys = [record[store.FIELDS[0]] for record in store.records()]
        assert keys == sorted(keys) == store.keys()
        assert len(keys) == store.count() == len(SOURCES[name].records())

    def test_dump_from_text_round_trip(self, name):
        store = SOURCES[name]
        rebuilt = type(store).from_text(store.dump())
        assert rebuilt.records() == store.records()

    def test_index_built_before_add_is_not_served_after(self, name):
        store, extra = split(name)
        key_field = store.FIELDS[0]
        assert key_field in store.indexed_fields()
        probe = [NativeCondition(key_field, "=", key_of(store, extra))]
        assert store.native_query(probe, use_index=True) == []
        builds = store.fetch_stats()["index_builds"]
        assert builds >= 1
        store.add(extra)
        assert store.native_query(probe, use_index=True) == [extra.as_dict()]
        assert store.fetch_stats()["index_builds"] > builds


class TestDeepReadOnlyRecords:
    """A fetched record's multi-valued values are its record object's
    own tuples: no caller can change them in place, and the collector
    stops tracking them."""

    def test_values_are_the_record_objects_own_tuples(self, name):
        store = SOURCES[name]
        key_field = store.FIELDS[0]
        for fetched in store.native_query():
            record = store.get(fetched[key_field])
            for field, attribute in MULTI_VALUED[name].items():
                assert type(fetched[field]) is tuple
                assert fetched[field] is getattr(record, attribute)

    def test_append_raises_and_later_fetches_are_unchanged(self, name):
        source = SOURCES[name]
        store = type(source)(source.all_records())
        key_field = store.FIELDS[0]
        before = copy.deepcopy([dict(record) for record in store.native_query()])
        for field in MULTI_VALUED[name]:
            fetched = next(
                record for record in store.native_query() if record[field]
            )
            with pytest.raises(AttributeError):
                fetched[field].append(fetched[field][0])
            [hit] = store.native_query(
                [NativeCondition(key_field, "=", fetched[key_field])],
                use_index=True,
            )
            assert dict(hit) == next(
                record for record in before
                if record[key_field] == fetched[key_field]
            )
        assert [dict(record) for record in store.native_query()] == before

    def test_values_are_untracked_after_a_collection(self, name):
        fetched = SOURCES[name].native_query()
        gc.collect()
        for record in fetched:
            for field in MULTI_VALUED[name]:
                assert not gc.is_tracked(record[field])


class TestGoGraphFollowsRemove:
    def test_removed_term_leaves_children_and_descendants(self):
        go, leaf = split("GO")
        go.add(leaf)
        parent = leaf.is_a[0]
        grandparents = go.ancestors(parent)
        assert leaf in go.children(parent)
        assert leaf.go_id in go.descendants(parent)
        assert all(leaf.go_id in go.descendants(top) for top in grandparents)
        go.remove(leaf.go_id)
        assert leaf not in go.children(parent)
        assert leaf.go_id not in go.descendants(parent)
        assert not any(
            leaf.go_id in go.descendants(top) for top in grandparents
        )
        with pytest.raises(DataFormatError):
            go.ancestors(leaf.go_id)
