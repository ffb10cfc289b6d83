"""Tests for flat-file federation persistence."""

import json

import pytest

from repro.core import Annoda
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.persistence import (
    MANIFEST_NAME,
    adopt_persisted_indexes,
    load_manifest,
    load_stores,
    save_corpus,
    save_stores,
    wrappers_for,
)
from repro.util.errors import DataFormatError


@pytest.fixture(scope="module")
def corpus():
    return AnnotationCorpus.generate(
        seed=71,
        parameters=CorpusParameters(loci=60, go_terms=40, omim_entries=20),
    )


class TestSaveLoad:
    def test_three_source_round_trip(self, corpus, tmp_path):
        manifest = save_corpus(corpus, tmp_path)
        assert set(manifest["sources"]) == {"LocusLink", "GO", "OMIM"}
        stores = load_stores(tmp_path)
        assert stores["LocusLink"].dump() == corpus.locuslink.dump()
        assert stores["GO"].dump() == corpus.go.dump()
        assert stores["OMIM"].dump() == corpus.omim.dump()

    def test_five_source_round_trip(self, corpus, tmp_path):
        citations = corpus.make_citation_store(count=30)
        proteins = corpus.make_protein_store()
        save_corpus(
            corpus, tmp_path, citations=citations, proteins=proteins
        )
        stores = load_stores(tmp_path)
        assert stores["PubMed"].dump() == citations.dump()
        assert stores["SwissProt"].dump() == proteins.dump()

    def test_files_use_native_formats(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        assert (tmp_path / "locuslink.ll_tmpl").read_text().startswith(">>")
        assert (tmp_path / "gene_ontology.obo").read_text().startswith(
            "format-version"
        )
        assert (tmp_path / "omim.txt").read_text().startswith("*RECORD*")

    def test_manifest_metadata(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path, metadata={"release": "2005.1"})
        manifest = load_manifest(tmp_path)
        assert manifest["metadata"]["seed"] == 71
        assert manifest["metadata"]["release"] == "2005.1"

    def test_wrappers_for_canonical_order(self, corpus, tmp_path):
        save_corpus(
            corpus, tmp_path, proteins=corpus.make_protein_store()
        )
        wrappers = wrappers_for(load_stores(tmp_path))
        assert [wrapper.name for wrapper in wrappers] == [
            "LocusLink",
            "GO",
            "OMIM",
            "SwissProt",
        ]


    def test_citations_only_round_trip(self, corpus, tmp_path):
        citations = corpus.make_citation_store(count=25)
        manifest = save_corpus(corpus, tmp_path, citations=citations)
        assert set(manifest["sources"]) == {
            "LocusLink", "GO", "OMIM", "PubMed",
        }
        stores = load_stores(tmp_path)
        assert stores["PubMed"].dump() == citations.dump()
        assert stores["PubMed"].count() == citations.count()

    def test_proteins_only_round_trip(self, corpus, tmp_path):
        proteins = corpus.make_protein_store()
        manifest = save_corpus(corpus, tmp_path, proteins=proteins)
        assert set(manifest["sources"]) == {
            "LocusLink", "GO", "OMIM", "SwissProt",
        }
        stores = load_stores(tmp_path)
        assert stores["SwissProt"].dump() == proteins.dump()
        assert stores["SwissProt"].count() == proteins.count()


class TestCorruptionHandling:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)

    def test_load_manifest_missing_raises_data_format_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="not a"):
            load_manifest(tmp_path)

    def test_load_manifest_corrupt_json_raises_data_format_error(
        self, tmp_path
    ):
        (tmp_path / MANIFEST_NAME).write_text('{"format": "annoda-')
        with pytest.raises(DataFormatError, match="corrupt manifest"):
            load_manifest(tmp_path)

    def test_unsupported_format_version(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"format": "annoda-federation/99", "sources": {}})
        )
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)

    def test_missing_listed_file(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        (tmp_path / "omim.txt").unlink()
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)

    def test_record_count_mismatch(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        manifest = load_manifest(tmp_path)
        manifest["sources"]["OMIM"]["records"] = 999
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)

    def test_corrupt_source_file(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        (tmp_path / "locuslink.ll_tmpl").write_text(">>abc\nbroken\n")
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)


class TestUntrustedManifest:
    """A snapshot directory is read as untrusted input: every malformed
    manifest or flat file is a :class:`DataFormatError`, never an
    ``AttributeError``, ``TypeError``, ``UnicodeDecodeError`` or
    ``OSError`` from inside the loader."""

    @staticmethod
    def _edit_manifest(directory, edit):
        manifest = load_manifest(directory)
        edit(manifest)
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_manifest_that_is_a_list(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[]")
        with pytest.raises(DataFormatError, match="corrupt manifest"):
            load_stores(tmp_path)

    def test_sources_that_is_a_list(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        self._edit_manifest(
            tmp_path, lambda manifest: manifest.update(sources=[])
        )
        with pytest.raises(DataFormatError, match="sources"):
            load_stores(tmp_path)

    def test_source_entry_that_is_a_string(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        self._edit_manifest(
            tmp_path,
            lambda manifest: manifest["sources"].update(GO="x"),
        )
        with pytest.raises(DataFormatError, match="sources"):
            load_stores(tmp_path)

    def test_file_name_that_is_a_number(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        self._edit_manifest(
            tmp_path,
            lambda manifest: manifest["sources"]["GO"].update(file=5),
        )
        with pytest.raises(DataFormatError, match="file"):
            load_stores(tmp_path)

    def test_manifest_that_is_not_utf8(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_bytes(b"\xff\xfe{")
        with pytest.raises(DataFormatError, match="corrupt manifest"):
            load_stores(tmp_path)

    def test_flat_file_that_is_not_utf8(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        (tmp_path / "omim.txt").write_bytes(b"*RECORD*\n\xff\xfe\n")
        with pytest.raises(DataFormatError, match="omim.txt"):
            load_stores(tmp_path)

    def test_adoption_skips_a_file_name_that_is_a_number(self, corpus,
                                                          tmp_path):
        save_corpus(corpus, tmp_path, indexes=True)
        stores = load_stores(tmp_path, adopt_indexes=False)
        self._edit_manifest(
            tmp_path,
            lambda manifest: manifest["sources"]["GO"].update(file=5),
        )
        adopted = adopt_persisted_indexes(tmp_path, stores)
        assert "GO" not in adopted

    def test_file_name_that_is_a_directory(self, corpus, tmp_path):
        save_corpus(corpus, tmp_path)
        self._edit_manifest(
            tmp_path,
            lambda manifest: manifest["sources"]["GO"].update(file="."),
        )
        with pytest.raises(DataFormatError, match="cannot read"):
            load_stores(tmp_path)


class TestAtomicSave:
    """A save that dies midway must leave the previous snapshot
    loadable: every file goes through temp + rename, and the manifest
    — written last — is the commit point."""

    def test_failed_save_leaves_previous_snapshot_intact(
        self, corpus, monkeypatch, tmp_path
    ):
        from repro.sources import persistence

        save_corpus(corpus, tmp_path)
        before = {
            item.name: item.read_bytes()
            for item in tmp_path.iterdir()
        }

        def failing_replace(src, dst):
            raise OSError("disk full")

        other = AnnotationCorpus.generate(
            seed=72,
            parameters=CorpusParameters(
                loci=30, go_terms=20, omim_entries=10
            ),
        )
        monkeypatch.setattr(persistence.os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_corpus(other, tmp_path)
        monkeypatch.undo()

        # No temp litter, no torn files: the rename never happened, so
        # every file is byte-identical to the previous snapshot and the
        # directory still loads as the *previous* federation.
        assert not list(tmp_path.glob("*.tmp"))
        assert {
            item.name: item.read_bytes() for item in tmp_path.iterdir()
        } == before
        stores = load_stores(tmp_path)
        assert stores["LocusLink"].count() == corpus.locuslink.count()

    def test_failed_manifest_write_is_loud_not_silent(
        self, corpus, monkeypatch, tmp_path
    ):
        from repro.sources import persistence

        real_replace = persistence.os.replace

        def failing_replace(src, dst):
            if str(dst).endswith(MANIFEST_NAME):
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(persistence.os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_corpus(corpus, tmp_path)
        monkeypatch.undo()

        # Data files landed but the commit point didn't: the directory
        # is not a federation snapshot, and loading says so loudly.
        assert (tmp_path / "locuslink.ll_tmpl").is_file()
        assert not (tmp_path / MANIFEST_NAME).exists()
        with pytest.raises(DataFormatError):
            load_stores(tmp_path)


class TestAnnodaIntegration:
    def test_save_then_from_directory(self, tmp_path):
        original = Annoda.with_default_sources(
            seed=73,
            parameters=CorpusParameters(
                loci=50, go_terms=30, omim_entries=15
            ),
        )
        original.save(tmp_path / "federation")
        reloaded = Annoda.from_directory(tmp_path / "federation")
        assert reloaded.sources() == original.sources()
        question = "find genes associated with some OMIM disease"
        assert set(
            reloaded.ask(question, enrich_links=False).gene_ids()
        ) == set(original.ask(question, enrich_links=False).gene_ids())

    def test_reloaded_federation_navigates(self, tmp_path):
        original = Annoda.with_default_sources(
            seed=73,
            parameters=CorpusParameters(
                loci=50, go_terms=30, omim_entries=15
            ),
        )
        original.save(tmp_path / "federation")
        reloaded = Annoda.from_directory(tmp_path / "federation")
        locus_id = original.corpus.locuslink.locus_ids()[0]
        view = reloaded.navigate(
            "http://www.ncbi.nlm.nih.gov/LocusLink/LocRpt.cgi"
            f"?l={locus_id}"
        )
        assert dict(view.field_items())["LocusID"] == locus_id
