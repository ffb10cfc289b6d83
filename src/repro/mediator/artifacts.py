"""Content-addressed stage artifact cache.

Each executor stage (anchor semijoin, per-source enrichment,
reconcile, final answer construction) names its finished output by a
**stable content hash** over
everything that determines it: the stage kind, its normalized
conditions, the owning source's name *and version counter*, and the
upstream artifacts it consumed.  A repeated or overlapping query
recomputes the same key and skips the stage entirely — the
"Artifact exists? → reuse cached output" lifecycle of execution-DAG
engines, applied to the mediator's pipeline.

Two tiers back the store:

- an **in-memory LRU** (bounded entry count, shared by every
  execution of the owning mediator) holding pickled payloads;
- an optional **on-disk directory** (``--artifact-dir``) written with
  the same atomic temp+rename discipline as the persistence layer's
  flat files, each artifact digest-gated: the envelope records the
  payload's sha256, a corrupted or truncated file warns and reads as
  a miss (the stage recomputes — never a wrong answer, never a
  crash), mirroring the snapshot corruption contract.

A payload stored with ``live=True`` additionally keeps the payload
*object itself* alongside the blob in the memory tier, and ``get``
returns that object by reference instead of unpickling a copy.  This
exists for the answer-construction stage, whose payload — the
translated gene rows, the :class:`~repro.mediator.view.AnswerView`
the OEM view is built from on first read, and the reconciliation
issues — is cheaper to share than to rebuild from bytes: the same
sharing contract as the mediator's result cache, so callers treat a
returned live payload as immutable.  When the store has no disk tier,
a live put skips serialization entirely.

Invalidation needs no clocks and no sweeps: a mutated source bumps its
``version``, every stage key over that source changes, and stale
entries age out of the LRU.  Source *re-registration* (a different
store under the same name, possibly at the same version counter) goes
through :meth:`ArtifactStore.invalidate_source`, which drops every
entry tagged with the source.

Shared state is guarded through the :mod:`repro.util.locks` seam
(``new_lock``/``make_counters``), so the race checker observes the
store like any other federation lock; disk I/O happens outside the
lock (rule ANN004).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle
import warnings
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sources.persistence import write_atomic
from repro.util.locks import make_counters, new_lock

#: Version of the artifact key recipe, the on-disk envelope *and* the
#: stage payload shapes.  Bumped whenever any of them changes, so
#: artifacts written by a different code line can never be misread —
#: their keys simply never match.  Schema 2: the answer payload holds
#: the view's inputs instead of an OEM graph, and enrichment entries
#: hold only the detail pairs the view shows.
ARTIFACT_SCHEMA = 2

#: First line of every on-disk artifact file.
_MAGIC = b"annoda-artifact/1"

#: File suffix of on-disk artifacts.
ARTIFACT_SUFFIX = ".artifact"


def _canon(value: Any) -> str:
    """A deterministic, restart-stable text encoding of one key part.

    Only plain data participates in stage keys: scalars, strings,
    bytes, and containers thereof (dicts sorted by encoded key, sets
    sorted).  Condition-like objects (anything with an ``attribute``)
    normalize to their ``(label, op, value)`` triple.  Anything else
    raises ``TypeError`` — silently falling back to ``repr`` would
    embed memory addresses and break hash stability across processes.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return json.dumps(value)
    if isinstance(value, (bytes, bytearray)):
        return f"bytes:{bytes(value).hex()}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(item) for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            (_canon(key), _canon(item)) for key, item in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if hasattr(value, "attribute") and hasattr(value, "op"):
        return _canon((value.attribute, value.op, value.value))
    raise TypeError(
        f"value of type {type(value).__name__} cannot participate in a "
        f"stage key: {value!r}"
    )


def stage_key(
    kind: str,
    *,
    source: Optional[str] = None,
    version: Optional[int] = None,
    conditions: Iterable[Any] = (),
    upstream: Iterable[Any] = (),
    extra: Iterable[Any] = (),
) -> str:
    """The content address of one executor stage: a sha256 hexdigest
    over (schema, stage kind, source id + version, normalized
    conditions, upstream artifact hashes/content, extras).

    Stable across process restarts (no ``hash()``, no ids, no clock)
    and collision-safe by construction: every part goes through
    :func:`_canon`, which is injective on the supported value space.
    """
    text = _canon(
        [
            ARTIFACT_SCHEMA,
            kind,
            source,
            version,
            list(conditions),
            list(upstream),
            list(extra),
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Two-tier (memory LRU + optional disk) artifact store.

    ``get``/``put`` exchange *payloads* — plain picklable values; the
    store owns serialization, so the byte size it accounts is the real
    artifact size.  Thread-safe: the federated fetcher may finish
    stages on worker threads while another execution probes.
    """

    def __init__(
        self,
        directory: Optional[Any] = None,
        max_entries: int = 256,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.directory = (
            None if directory is None else pathlib.Path(directory)
        )
        self.max_entries = max_entries
        self._lock = new_lock("ArtifactStore._lock")
        #: key -> (blob, sources, live); insertion order is recency
        #: order (pop + reinsert on hit).  ``blob`` is ``None`` only
        #: for live entries of a disk-less store; ``live`` is ``None``
        #: for ordinary pickled entries.
        self._entries: Dict[
            str, Tuple[Optional[bytes], Tuple[str, ...], Any]
        ] = {}
        self._counters = make_counters(
            {"hits": 0, "misses": 0, "stores": 0, "invalidations": 0},
            lock=self._lock,
            owner="ArtifactStore",
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # -- probing -------------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[Any, int]]:
        """``(payload, byte_size)`` for a finished stage, or ``None``.

        Memory first; then the disk tier, whose artifact is only
        unpickled after its digest gate passes — a corrupted file
        warns, reads as a miss, and the stage recomputes.  A live
        entry returns its payload *by reference* (see the module
        docstring for the immutability contract).
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry  # re-insert: most recent
                self._counters["hits"] += 1
                blob, _sources, live = entry
            else:
                blob, live = None, None
        if live is not None:
            return live, 0 if blob is None else len(blob)
        if blob is not None:
            return pickle.loads(blob), len(blob)
        blob_sources = self._read_disk(key)
        if blob_sources is None:
            with self._lock:
                self._counters["misses"] += 1
            return None
        blob, sources = blob_sources
        with self._lock:
            self._counters["hits"] += 1
            self._remember_locked(key, blob, sources)
        return pickle.loads(blob), len(blob)

    def put(
        self,
        key: str,
        payload: Any,
        sources: Iterable[str] = (),
        live: bool = False,
    ) -> int:
        """Store one finished stage's payload; returns its byte size.

        ``sources`` tags the entry for :meth:`invalidate_source`.  The
        pickle and any disk write happen outside the lock.  With
        ``live=True`` the payload object itself is kept in the memory
        tier and later handed back by reference; a disk-less store
        then skips pickling altogether (reported size 0).
        """
        blob = (
            None
            if live and self.directory is None
            else pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        source_tags = tuple(sources)
        with self._lock:
            self._counters["stores"] += 1
            self._remember_locked(
                key, blob, source_tags, payload if live else None
            )
        if self.directory is not None and blob is not None:
            self._write_disk(key, blob, source_tags)
        return 0 if blob is None else len(blob)

    def _remember_locked(
        self,
        key: str,
        blob: Optional[bytes],
        sources: Tuple[str, ...],
        live: Any = None,
    ) -> None:
        self._entries.pop(key, None)
        self._entries[key] = (blob, sources, live)
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]

    # -- invalidation --------------------------------------------------------

    def invalidate_source(self, source_name: str) -> int:
        """Drop every artifact tagged with ``source_name`` (memory and
        disk); returns the number of entries dropped.

        Version bumps invalidate implicitly (the key changes); this
        handles re-registration — a *different* store under the same
        name whose version counter may coincide with the old one.
        """
        with self._lock:
            stale = [
                key
                for key, (_blob, sources, _live) in self._entries.items()
                if source_name in sources
            ]
            for key in stale:
                del self._entries[key]
            self._counters["invalidations"] += len(stale)
        dropped = len(stale)
        if self.directory is not None:
            dropped += self._invalidate_disk(source_name, set(stale))
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Cumulative store counters (hits/misses/stores/
        invalidations) plus the live entry count."""
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["entries"] = len(self._entries)
        return snapshot

    # -- disk tier -----------------------------------------------------------

    def _path_for(self, key: str) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / f"{key}{ARTIFACT_SUFFIX}"

    def _write_disk(
        self, key: str, blob: bytes, sources: Tuple[str, ...]
    ) -> None:
        header = json.dumps(
            {
                "schema": ARTIFACT_SCHEMA,
                "digest": hashlib.sha256(blob).hexdigest(),
                "sources": list(sources),
            },
            sort_keys=True,
        ).encode("utf-8")
        write_atomic(
            self._path_for(key), _MAGIC + b"\n" + header + b"\n" + blob
        )

    def _read_disk(
        self, key: str
    ) -> Optional[Tuple[bytes, Tuple[str, ...]]]:
        if self.directory is None:
            return None
        path = self._path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            magic, header_line, blob = data.split(b"\n", 2)
            if magic != _MAGIC:
                raise ValueError("bad magic")
            header = json.loads(header_line.decode("utf-8"))
            if header.get("schema") != ARTIFACT_SCHEMA:
                raise ValueError("unsupported schema")
            if hashlib.sha256(blob).hexdigest() != header["digest"]:
                raise ValueError("payload digest mismatch")
            sources = tuple(header.get("sources", ()))
        except (KeyError, TypeError, ValueError) as exc:
            warnings.warn(
                f"artifact {path.name} is corrupted ({exc}); "
                "recomputing the stage",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return blob, sources

    def _invalidate_disk(
        self, source_name: str, already_dropped: set
    ) -> int:
        assert self.directory is not None
        dropped = 0
        try:
            paths = sorted(self.directory.glob(f"*{ARTIFACT_SUFFIX}"))
        except OSError:
            return 0
        for path in paths:
            key = path.name[: -len(ARTIFACT_SUFFIX)]
            read = self._read_disk(key)
            tagged = read is not None and source_name in read[1]
            if tagged or read is None or key in already_dropped:
                # A corrupted artifact is dropped too: it can never be
                # read back, so keeping it only re-warns forever.
                try:
                    path.unlink()
                except OSError:
                    continue
                if tagged and key not in already_dropped:
                    dropped += 1
        return dropped
