"""Saving and loading federation data as flat files on disk.

Each source persists in *its own* period-accurate format — exactly how
these databases were distributed in 2005: LocusLink as ``LL_tmpl``, GO
as OBO, OMIM as ``omim.txt``, citations as MEDLINE, proteins as
SwissProt DAT.  A ``manifest.json`` records what is present.

This is the bridge between the synthetic corpora and real dumps: a
directory holding genuine (subset) dumps in these formats loads the
same way.

Alongside the flat files the snapshot optionally materializes each
store's **equality-index state** (the warehouse trade: derived
structures persisted next to the data, invalidated by version), so a
cold start answers its first indexed query without any extent scan:

- ``<flat file>.idx`` holds a pickled
  :meth:`~repro.sources.base.DataSource.export_index_state` envelope;
- the manifest's per-source ``index`` entry records the idx file, its
  sha256 ``digest``, the flat file's ``data_digest``, the exporting
  store's ``version`` and the state ``schema`` — the validation key.

``load_stores`` adopts a persisted index only when every key matches
(digests, version, schema, record count); any mismatch or corruption
**warns and falls back to lazy rebuild** — never a wrong answer, never
a crash.  The pickle payload is only deserialized after its digest
gate passes, tying it byte-for-byte to what ``save_stores`` wrote.

Every file is written via temp-file + ``os.replace``, the manifest
last: no reader ever observes a torn file, and a save into a fresh
directory that crashes before the manifest lands never looks like a
snapshot — ``load_stores`` refuses it loudly.  (In-place re-saves are
not directory-atomic; snapshot into a fresh directory to get an
all-or-nothing commit.)
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import warnings
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.sources.base import INDEX_STATE_SCHEMA
from repro.sources.go.ontology import GoOntology
from repro.sources.locuslink.store import LocusLinkStore
from repro.sources.omim.store import OmimStore
from repro.sources.pubmedlike.store import CitationStore
from repro.sources.swissprotlike.store import ProteinStore
from repro.util.errors import DataFormatError

MANIFEST_NAME = "manifest.json"

#: A directory argument: anything pathlib accepts.
PathLike = Union[str, "os.PathLike[str]"]

#: Suffix appended to a source's flat-file name for its index snapshot.
INDEX_SUFFIX = ".idx"

#: Source name -> (file name, store class).
_REGISTRY: Dict[str, Tuple[str, Any]] = {
    "LocusLink": ("locuslink.ll_tmpl", LocusLinkStore),
    "GO": ("gene_ontology.obo", GoOntology),
    "OMIM": ("omim.txt", OmimStore),
    "PubMed": ("citations.medline", CitationStore),
    "SwissProt": ("proteins.dat", ProteinStore),
}

#: Load/registration order (the paper's trio first).
SOURCE_ORDER = ("LocusLink", "GO", "OMIM", "PubMed", "SwissProt")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_atomic(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` (bytes) via temp file + rename, so a reader
    never observes a torn file and a crashed writer leaves the
    previous version intact.  Public: the stage artifact store
    (:mod:`repro.mediator.artifacts`) reuses the same discipline."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


#: Back-compat alias (pre-public name).
_write_atomic = write_atomic


def save_stores(
    stores: Iterable[Any],
    directory: PathLike,
    metadata: Optional[Mapping[str, Any]] = None,
    indexes: bool = True,
) -> Dict[str, Any]:
    """Write each store's flat file plus the manifest.

    ``stores`` is an iterable of the supported store objects; returns
    the manifest dict.  With ``indexes`` (the default) each store's
    equality-index state is serialized next to its flat file and keyed
    in the manifest by version + content digests, making a later
    ``load_stores`` cold start cheap.  All writes are atomic and the
    manifest is written last (the commit point).
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, Any] = {"format": "annoda-federation/1", "sources": {}}
    if metadata:
        manifest["metadata"] = dict(metadata)
    for store in stores:
        if store.name not in _REGISTRY:
            raise DataFormatError(
                f"no persistence format registered for {store.name!r}"
            )
        file_name, _store_class = _REGISTRY[store.name]
        data = store.dump().encode("utf-8")
        _write_atomic(path / file_name, data)
        entry: Dict[str, Any] = {"file": file_name, "records": store.count()}
        if indexes:
            envelope = store.export_index_state()
            blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
            index_name = file_name + INDEX_SUFFIX
            _write_atomic(path / index_name, blob)
            entry["index"] = {
                "file": index_name,
                "schema": envelope["schema"],
                "version": envelope["version"],
                "digest": _sha256(blob),
                "data_digest": _sha256(data),
            }
        manifest["sources"][store.name] = entry
    _write_atomic(
        path / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return manifest


def save_corpus(
    corpus: Any,
    directory: PathLike,
    citations: Any = None,
    proteins: Any = None,
    metadata: Optional[Mapping[str, Any]] = None,
    indexes: bool = True,
) -> Dict[str, Any]:
    """Persist a corpus's three sources (plus optional extras)."""
    stores = list(corpus.sources())
    if citations is not None:
        stores.append(citations)
    if proteins is not None:
        stores.append(proteins)
    combined: Dict[str, Any] = {"seed": corpus.seed}
    if metadata:
        combined.update(metadata)
    return save_stores(stores, directory, metadata=combined,
                       indexes=indexes)


def load_stores(
    directory: PathLike, adopt_indexes: bool = True
) -> Dict[str, Any]:
    """Load every persisted source; returns ``{name: store}``.

    Consistency between manifest and files is enforced: a listed file
    must exist and parse, and its record count must match.  With
    ``adopt_indexes`` (the default) each source with a valid persisted
    index snapshot adopts it instead of rebuilding lazily; an invalid
    one (stale, truncated, tampered, future schema) emits a
    ``RuntimeWarning`` and the store rebuilds lazily — data loading
    itself is never affected.
    """
    path = pathlib.Path(directory)
    manifest = load_manifest(path)
    if manifest.get("format") != "annoda-federation/1":
        raise DataFormatError(
            f"unsupported federation format {manifest.get('format')!r}"
        )
    stores: Dict[str, Any] = {}
    for name, entry in _source_entries(manifest).items():
        if name not in _REGISTRY:
            raise DataFormatError(f"unknown source {name!r} in manifest")
        expected_file, store_class = _REGISTRY[name]
        file_name = entry.get("file", expected_file)
        if not isinstance(file_name, str):
            raise DataFormatError(f"{name}: manifest 'file' must be a name")
        file_path = path / file_name
        if not file_path.exists():
            raise DataFormatError(
                f"manifest lists {file_name} but the file is missing"
            )
        try:
            text = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataFormatError(
                f"{name}: cannot read {file_name}: {exc}"
            ) from None
        store = store_class.from_text(text)
        if entry.get("records") not in (None, store.count()):
            raise DataFormatError(
                f"{name}: manifest says {entry['records']} records, "
                f"file holds {store.count()}"
            )
        if adopt_indexes and entry.get("index"):
            _adopt_index(path, name, entry["index"], text, store)
        stores[name] = store
    return stores


def adopt_persisted_indexes(
    directory: PathLike, stores: Mapping[str, Any]
) -> Dict[str, bool]:
    """Adopt persisted index snapshots into already-loaded stores.

    Split out of :func:`load_stores` so cold-start measurement can
    time adoption separately from flat-file parsing.  Returns
    ``{name: adopted}`` for every store the manifest carries an index
    entry for; the same fallback contract applies — a failed adoption
    warns and the store keeps rebuilding lazily.
    """
    path = pathlib.Path(directory)
    manifest = load_manifest(path)
    adopted: Dict[str, bool] = {}
    for name, entry in _source_entries(manifest).items():
        store = stores.get(name)
        if store is None or not entry.get("index"):
            continue
        registry_entry = _REGISTRY.get(name)
        expected_file = registry_entry[0] if registry_entry else ""
        try:
            text = (path / entry.get("file", expected_file)).read_text(
                encoding="utf-8"
            )
        except (OSError, TypeError, UnicodeDecodeError):
            continue
        adopted[name] = _adopt_index(path, name, entry["index"], text,
                                     store)
    return adopted


def _adopt_index(
    path: pathlib.Path,
    name: str,
    index_entry: Mapping[str, Any],
    text: str,
    store: Any,
) -> bool:
    """Validate one persisted index snapshot against the manifest and
    the flat file actually loaded, then adopt it; returns True on
    adoption, warns and returns False on any mismatch or corruption."""

    def fallback(reason: str) -> bool:
        warnings.warn(
            f"{name}: ignoring persisted index snapshot ({reason}); "
            "indexes will be rebuilt lazily",
            RuntimeWarning,
            stacklevel=4,
        )
        return False

    if not isinstance(index_entry, Mapping):
        return fallback("malformed index entry")
    try:
        schema = index_entry.get("schema")
        if schema != INDEX_STATE_SCHEMA:
            return fallback(f"unsupported index schema {schema!r}")
        index_path = path / index_entry.get("file", "")
        if not index_path.is_file():
            return fallback("index file missing")
        blob = index_path.read_bytes()
    except (OSError, TypeError) as exc:
        return fallback(f"cannot read index file: {exc}")
    if _sha256(blob) != index_entry.get("digest"):
        return fallback("index file digest mismatch (truncated or corrupt)")
    if _sha256(text.encode("utf-8")) != index_entry.get("data_digest"):
        return fallback("flat file changed since the snapshot was taken")
    try:
        envelope = pickle.loads(blob)
    except Exception as exc:
        return fallback(f"unreadable index payload: {exc}")
    try:
        version = envelope.get("version")
    except AttributeError:
        return fallback("malformed index payload")
    if version != index_entry.get("version"):
        return fallback("stale index version")
    if not store.adopt_index_state(envelope):
        return fallback("index state does not match the loaded store")
    return True


def load_manifest(directory: PathLike) -> Dict[str, Any]:
    """The manifest dict of a federation directory.

    Raises :class:`DataFormatError` when the manifest is missing or
    unparseable — the directory is not (or no longer) a federation
    snapshot.
    """
    path = pathlib.Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise DataFormatError(
            f"no {MANIFEST_NAME} in {pathlib.Path(directory)} - not a "
            "federation directory"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError("corrupt manifest: not a JSON object")
    return manifest


def _source_entries(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """The manifest's ``sources`` table: source name -> entry object."""
    sources = manifest.get("sources", {})
    if not isinstance(sources, dict) or not all(
        isinstance(entry, dict) for entry in sources.values()
    ):
        raise DataFormatError(
            "corrupt manifest: 'sources' must map names to objects"
        )
    return sources


def wrappers_for(stores: Mapping[str, Any]) -> List[Any]:
    """Wrappers for loaded stores, in canonical registration order."""
    from repro.wrappers import (
        GoWrapper,
        LocusLinkWrapper,
        OmimWrapper,
        PubmedLikeWrapper,
        SwissProtLikeWrapper,
    )

    classes = {
        "LocusLink": LocusLinkWrapper,
        "GO": GoWrapper,
        "OMIM": OmimWrapper,
        "PubMed": PubmedLikeWrapper,
        "SwissProt": SwissProtLikeWrapper,
    }
    ordered: List[Any] = []
    for name in SOURCE_ORDER:
        if name in stores:
            ordered.append(classes[name](stores[name]))
    return ordered
