"""The mediator's one version-keyed cache.

Every :class:`~repro.mediator.mediator.Mediator` owns one
:class:`ArtifactStore`.  Each entry is an **identity** (what was
computed) plus the **(source, version) pairs** it was built from, and
belongs to one of four kinds (:data:`KINDS`):

- ``answer`` — a whole
  :class:`~repro.mediator.executor.IntegratedResult`, identified by the
  query, the link-enrichment flag and the mediator's optimizer,
  reconciliation and federation policies, built from every registered
  source's version; the mediator alone decides which answers are
  stored (the answer rule in :meth:`Mediator.query
  <repro.mediator.mediator.Mediator.query>`);
- ``enrichment`` — one link source's matched-id -> detail-pairs index;
- ``symbols`` — one symbol-joined source's
  :class:`~repro.mediator.reconcile.SymbolIndex`;
- ``links`` — one link table: anchor primary key -> the anchor's
  reconciled link ids and conflicts for one (anchor source, link
  source, reconciliation policy), built from both sources' versions
  (see :meth:`Executor._link_table
  <repro.mediator.executor.Executor._link_table>`).

A lookup hits only when the entry's versions equal the caller's, so a
hit is always as fresh as a recomputation: a mutated source bumps its
``version`` and every entry built from it stops matching.  Putting an
entry replaces any older version of the same identity, so the store
holds at most one entry per identity, and one LRU bound caps the
total.  Values are shared by reference: callers treat them as
immutable, except the enrichment index and the link table, which only
ever grow by entries valid at their versions.

Source *re-registration* (a different store under the same name,
possibly at the same version counter) goes through
:meth:`ArtifactStore.invalidate_source`, which drops every entry built
from the source, on disk too.

The optional **disk tier** (``--artifact-dir``) holds the entries put
with ``persist=True`` — complete answers — so they survive a restart.
Each file is named by :func:`stage_key` over the entry's kind,
identity and versions, and written with the same atomic temp+rename
discipline as the persistence layer's flat files.  Each file is
digest-gated: the envelope records the payload's sha256, and a
corrupted or truncated file warns and reads as a miss (the answer
recomputes — never a wrong answer, never a crash), mirroring the
snapshot corruption contract.

Shared state is guarded through the :mod:`repro.util.locks` seam
(``new_lock``/``make_counters``), so the race checker observes the
store like any other federation lock; pickling and disk I/O happen
outside the lock (rule ANN004).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import pickle
import warnings
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.sources.persistence import write_atomic
from repro.util.locks import make_counters, new_lock

#: Version of the key recipe, the on-disk envelope *and* the payload
#: shapes.  Bumped whenever any of them changes, so files written by a
#: different code line can never be misread — their names simply never
#: match.  Schema 3: one entry per (kind, identity, versions), and the
#: disk tier holds whole answers only.  Schema 4: a stored answer
#: carries an ``ExecutionReport`` instead of the deleted stats object.
ARTIFACT_SCHEMA = 4

#: First line of every on-disk artifact file.
_MAGIC = b"annoda-artifact/1"

#: File suffix of on-disk artifacts.
ARTIFACT_SUFFIX = ".artifact"

#: The entry kinds, in the order :meth:`ArtifactStore.stats` lists them.
KINDS = ("answer", "enrichment", "symbols", "links")

#: ``((source name, version counter), ...)`` an entry was built from.
Versions = Tuple[Tuple[str, int], ...]


def _canon(value: Any) -> str:
    """A deterministic, restart-stable text encoding of one key part.

    Only plain data participates in keys: scalars, strings, bytes,
    containers thereof (dicts sorted by encoded key, sets sorted) and
    frozen dataclasses (type name plus fields).  Condition-like objects
    (anything with an ``attribute`` and an ``op``) normalize to their
    ``(label, op, value)`` triple.  Anything else raises ``TypeError``
    — silently falling back to ``repr`` would embed memory addresses
    and break hash stability across processes.
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
    if (
        dataclasses.is_dataclass(value)
        and not isinstance(value, type)
        and value.__dataclass_params__.frozen
    ):
        return _canon(
            [
                type(value).__qualname__,
                {
                    field.name: getattr(value, field.name)
                    for field in dataclasses.fields(value)
                },
            ]
        )
    raise TypeError(
        f"value of type {type(value).__name__} cannot participate in a "
        f"stage key: {value!r}"
    )


def stage_key(kind: str, identity: Any, versions: Any = ()) -> str:
    """The content address of one entry: a sha256 hexdigest over
    (schema, kind, identity, versions).

    Stable across process restarts (no ``hash()``, no ids, no clock)
    and collision-safe by construction: every part goes through
    :func:`_canon`, which is injective on the supported value space.
    """
    text = _canon([ARTIFACT_SCHEMA, kind, identity, list(versions)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactStore:
    """The version-keyed memory LRU, plus an optional disk tier.

    Thread-safe: every execution of the owning mediator probes and
    fills it, concurrently under the service's worker pool.
    """

    def __init__(
        self,
        directory: Optional[Any] = None,
        max_entries: int = 32,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.directory = (
            None if directory is None else pathlib.Path(directory)
        )
        self.max_entries = max_entries
        self._lock = new_lock("ArtifactStore._lock")
        #: (kind, identity) -> (versions, value); insertion order is
        #: recency order (pop + reinsert on hit).
        self._entries: Dict[Tuple[str, Hashable], Tuple[Versions, Any]] = {}
        self._counters = make_counters(
            {
                f"{kind}.{outcome}": 0
                for kind in KINDS
                for outcome in ("hits", "misses")
            },
            lock=self._lock,
            owner="ArtifactStore",
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # -- probing -------------------------------------------------------------

    def get(self, kind: str, identity: Hashable,
            versions: Versions) -> Optional[Any]:
        """The value stored for ``identity`` built from exactly
        ``versions``, or ``None``.

        Memory first; then the disk tier, whose file is only unpickled
        after its digest gate passes — a corrupted file warns and reads
        as a miss.
        """
        key = (kind, identity)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == versions:
                self._entries[key] = self._entries.pop(key)  # most recent
                self._counters[f"{kind}.hits"] += 1
                return entry[1]
        value = self._read_disk(kind, identity, versions)
        with self._lock:
            if value is None:
                self._counters[f"{kind}.misses"] += 1
            else:
                self._counters[f"{kind}.hits"] += 1
                self._remember_locked(key, versions, value)
        return value

    def setdefault(self, kind: str, identity: Hashable, versions: Versions,
                   factory: Callable[[], Any]) -> Any:
        """The memory entry for ``identity`` built from exactly
        ``versions``, or a new ``factory()`` value stored in its place
        (replacing any older version): one lookup-or-insert under the
        lock, so concurrent callers share one value.  Counted as a hit
        or a miss like :meth:`get`; the disk tier is not consulted."""
        key = (kind, identity)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == versions:
                self._entries[key] = self._entries.pop(key)  # most recent
                self._counters[f"{kind}.hits"] += 1
                return entry[1]
            self._counters[f"{kind}.misses"] += 1
            value = factory()
            self._remember_locked(key, versions, value)
            return value

    def put(self, kind: str, identity: Hashable, versions: Versions,
            value: Any, persist: bool = False) -> None:
        """Store ``value`` for ``identity`` at ``versions``, replacing
        any older version of the same identity.

        ``persist`` also writes it to the disk tier (when there is
        one); the pickle and the write happen outside the lock.
        """
        with self._lock:
            self._remember_locked((kind, identity), versions, value)
        if persist and self.directory is not None:
            self._write_disk(
                stage_key(kind, identity, versions),
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                versions,
            )

    def _remember_locked(self, key: Tuple[str, Hashable],
                         versions: Versions, value: Any) -> None:
        self._entries.pop(key, None)
        self._entries[key] = (versions, value)
        while len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]

    # -- invalidation --------------------------------------------------------

    def invalidate_source(self, source_name: str) -> int:
        """Drop every entry built from ``source_name``; returns how
        many memory entries and disk files it dropped.

        Version bumps invalidate implicitly (the versions stop
        matching); this handles re-registration — a *different* store
        under the same name whose version counter may coincide with
        the old one.
        """
        with self._lock:
            stale = [
                key
                for key, (versions, _value) in self._entries.items()
                if any(name == source_name for name, _version in versions)
            ]
            for key in stale:
                del self._entries[key]
        dropped = len(stale)
        if self.directory is not None:
            dropped += self._invalidate_disk(source_name)
        return dropped

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per kind: cumulative ``hits`` and ``misses`` plus the live
        ``entries`` count."""
        with self._lock:
            entries = [kind for kind, _identity in self._entries]
            return {
                kind: {
                    "hits": self._counters[f"{kind}.hits"],
                    "misses": self._counters[f"{kind}.misses"],
                    "entries": entries.count(kind),
                }
                for kind in KINDS
            }

    # -- disk tier -----------------------------------------------------------

    def _path_for(self, name: str) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / f"{name}{ARTIFACT_SUFFIX}"

    def _write_disk(self, name: str, blob: bytes,
                    versions: Versions) -> None:
        header = json.dumps(
            {
                "schema": ARTIFACT_SCHEMA,
                "digest": hashlib.sha256(blob).hexdigest(),
                "sources": sorted(source for source, _version in versions),
            },
            sort_keys=True,
        ).encode("utf-8")
        write_atomic(
            self._path_for(name), _MAGIC + b"\n" + header + b"\n" + blob
        )

    def _read_disk(self, kind: str, identity: Any,
                   versions: Versions) -> Optional[Any]:
        if self.directory is None:
            return None
        read = self._read_file(
            self._path_for(stage_key(kind, identity, versions))
        )
        return None if read is None else pickle.loads(read[0])

    def _read_file(
        self, path: pathlib.Path
    ) -> Optional[Tuple[bytes, Tuple[str, ...]]]:
        """``(payload blob, source tags)`` of one artifact file, or
        ``None`` when it is absent or fails its gate (which warns)."""
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
                "recomputing",
                RuntimeWarning,
                stacklevel=4,
            )
            return None
        return blob, sources

    def _invalidate_disk(self, source_name: str) -> int:
        assert self.directory is not None
        dropped = 0
        try:
            paths = sorted(self.directory.glob(f"*{ARTIFACT_SUFFIX}"))
        except OSError:
            return 0
        for path in paths:
            read = self._read_file(path)
            tagged = read is not None and source_name in read[1]
            if tagged or read is None:
                # A corrupted artifact is dropped too: it can never be
                # read back, so keeping it only re-warns forever.
                try:
                    path.unlink()
                except OSError:
                    continue
                if tagged:
                    dropped += 1
        return dropped
