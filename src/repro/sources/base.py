"""The one keyed store every annotation source is.

Wrappers (and the warehouse baseline's extractors) talk to sources only
through this class, so plugging a new source in means declaring one
subclass — requirement 2 of section 3.1: *"a new relevant data source
should be wrapped and plugged in as it comes into existence"*.

A store is its declarations: a ``name``, its ``FIELDS`` (the first is
the primary key), the ``CAPABILITIES`` it evaluates natively, its
``INDEXED_FIELDS``, the ``KEY`` attribute of its record objects, and
its flat-file format (``parse``/``write``).  :class:`DataSource` keeps
the records in one dict by primary key and implements everything
else once: ``add``/``remove`` (each bumps ``version``; a duplicate
key is a :class:`~repro.util.errors.DataFormatError`), ``get``,
``keys``, ``all_records``, key-ordered ``records()``, ``count`` and
the ``dump``/``from_text`` flat-file round trip.

On top of the records sits the fetch-path machinery the mediator's
hot loop depends on:

- **one extent per version** — ``records()`` built once per
  ``version``, each record wrapped in a read-only
  :class:`types.MappingProxyType`; scans and index hits both read it.
- **equality indexes** — version-keyed hash indexes built lazily per
  field, so ``=`` (and batched ``in``) predicates answer by dict
  lookup instead of scanning the extent.  A mutation bumps ``version``
  and the stale extent and indexes are discarded wholesale, preserving
  the federated freshness guarantee: an indexed answer is always
  identical to a fresh scan.
- **the ``in`` operator** — one native call fetching many keys at
  once, which the executor uses to collapse N+1 per-id fetches into a
  single batched fetch.
- **fetch counters** — cumulative ``index_hits``/``scan_queries``
  (plus cold-start ``index_builds``/``index_adoptions``) accounting,
  each also added to the *tally* of the fetch being served
  (:func:`tallying`), which its reply carries into
  :class:`~repro.mediator.executor.ExecutionReport` — so concurrent
  executions never count each other's work.
- **persistent index snapshots** — ``export_index_state`` /
  ``adopt_index_state`` move the whole version-keyed index state
  across processes, so a store reloaded from disk
  (:mod:`repro.sources.persistence`) answers its first indexed query
  without any extent scan.

Record contract: records crossing the wrapper boundary
(``native_query``, so ``Wrapper.fetch``) are read-only mappings shared
by every caller, and so are their values: each multi-valued field is
its record object's own tuple.  ``dict(record)`` gives a mutable
copy.  Content changes only through version-bumping store methods
(``add``/``remove``).

Concurrency contract (machine-checked by ``repro.tools``): all
indexed-state mutation happens either under the per-source
``_fetch_mutex`` or in a method that bumps ``version`` (rule ANN002),
lock construction goes through :mod:`repro.util.locks` so the race
checker can observe acquisition order, and methods suffixed
``_locked`` require the caller to hold the mutex.
"""

from __future__ import annotations

import contextlib
import contextvars
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.lorel.coerce import _as_bool, _as_number, compare, like
from repro.util.errors import DataFormatError, QueryError
from repro.util.locks import make_counters, new_lock

#: One source record, as exchanged across the wrapper boundary: a
#: read-only mapping (``dict(record)`` gives a mutable copy).
Record = Mapping[str, Any]

#: A built equality index: normalized key -> record positions.
EqualityIndex = Dict[Tuple[str, Any], List[int]]

#: Layout version of the serializable equality-index state produced by
#: :meth:`DataSource.export_index_state`.  Bumped whenever the exported
#: structure changes shape; :meth:`DataSource.adopt_index_state`
#: refuses any other version and the caller rebuilds lazily.
INDEX_STATE_SCHEMA = 1

#: Version of the fetch-path counter set (``fetch_stats`` keys).
#: Persisted index snapshots record it so a snapshot written by a
#: *newer* code line — whose counters this line cannot interpret — is
#: rejected instead of half-adopted.
FETCH_COUNTER_SCHEMA = 2

#: The tally of the fetch this thread is serving, if any (see
#: :func:`tallying`).
_current_tally: "contextvars.ContextVar[Optional[Dict[str, int]]]" = (
    contextvars.ContextVar("fetch_tally", default=None)
)


def new_tally() -> Dict[str, int]:
    """An empty request-scoped fetch tally: the counters of
    :meth:`DataSource.fetch_stats` a fetch moves (all but the
    load-time ``index_adoptions``) plus ``replica_failovers``, which a
    :class:`~repro.mediator.replicas.ReplicaSet` adds."""
    return {
        "index_hits": 0,
        "scan_queries": 0,
        "index_builds": 0,
        "replica_failovers": 0,
    }


@contextlib.contextmanager
def tallying(tally: Dict[str, int]) -> Iterator[Dict[str, int]]:
    """Add what the native queries run on this thread do to ``tally``
    until the block exits, besides the sources' cumulative counters.

    The tally belongs to one fetch (the fetcher opens one per request)
    and only that fetch's attempts write it, one after another (an
    abandoned, timed-out attempt may still finish late), so it takes
    no lock.
    """
    token = _current_tally.set(tally)
    try:
        yield tally
    finally:
        _current_tally.reset(token)


def current_tally() -> Optional[Dict[str, int]]:
    """The tally of the fetch this thread is serving, or ``None``."""
    return _current_tally.get()


#: Comparison operators a source may support natively.  ``in`` is the
#: batched form of ``=``: any source that evaluates ``field = value``
#: natively also evaluates ``field in (v1, v2, ...)`` natively.
NATIVE_OPS = ("=", "!=", "<", "<=", ">", ">=", "like", "contains", "in")


@dataclass(frozen=True)
class NativeCondition:
    """A predicate a source evaluates natively: ``field op value``.

    ``contains`` is case-insensitive substring match (flat-file grep
    style); ``like`` uses SQL wildcards; ``in`` matches when the field
    equals *any* of an iterable of candidate values (batched key
    lookup).  The mediator's optimizer pushes a condition down only
    when the source's capabilities include its (field, op) pair.
    """

    field: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in NATIVE_OPS:
            raise QueryError(f"unsupported native operator {self.op!r}")
        if self.op == "in":
            if isinstance(self.value, (str, bytes)) or not hasattr(
                self.value, "__iter__"
            ):
                raise QueryError(
                    "'in' needs an iterable of candidate values"
                )
            object.__setattr__(self, "value", tuple(self.value))

    def render(self) -> str:
        return f"{self.field} {self.op} {self.value!r}"


_Store = TypeVar("_Store", bound="DataSource")


class DataSource:
    """An annotation source: record objects held by primary key.

    A record object carries its key in the attribute :attr:`KEY`
    names and gives its plain-dict view with ``as_dict()``.  Sources
    differ in their declarations, not in their storage: every one
    enumerates records (as plain dicts), filters natively where
    capable, and reports schema and version metadata through the
    methods below.
    """

    #: Stable source name ("LocusLink", "GO", "OMIM", ...).
    name: str = "abstract"

    #: The record fields this source exposes, in schema order; the
    #: first is the primary key.
    FIELDS: Tuple[str, ...] = ()

    #: The (field, op) pairs the source evaluates natively.
    CAPABILITIES: FrozenSet[Tuple[str, str]] = frozenset()

    #: Fields backed by a version-keyed equality index; ``None`` means
    #: every field the source can test for ``=`` natively.
    INDEXED_FIELDS: Optional[Tuple[str, ...]] = None

    #: The record-object attribute holding the primary key.
    KEY: str = ""

    #: The flat-file format: ``parse(text)`` gives the record objects
    #: of one flat file and ``write(records)`` its text.  A store
    #: declares both as static methods.
    parse: ClassVar[Any]
    write: ClassVar[Any]

    #: Master switch for the equality-index fast path.  Benchmarks
    #: flip this off to measure the bare scan path; production leaves
    #: it on.
    use_indexes: bool = True

    def __init__(
        self,
        records: Iterable[Any] = (),
        index_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Hold ``records``; ``index_state`` (a matching
        :meth:`export_index_state` snapshot) skips the cold-start
        index rebuild."""
        self._records: Dict[Any, Any] = {}
        self._version = 0
        for record in records:
            self.add(record)
        self._adopt_or_warn(index_state)

    # -- the flat-file round trip -------------------------------------------------

    def dump(self) -> str:
        """The store's content as its flat file."""
        return self.write(self.all_records())

    @classmethod
    def from_text(
        cls: Type[_Store],
        text: str,
        index_state: Optional[Dict[str, Any]] = None,
    ) -> _Store:
        """Build a store by parsing its flat file; ``index_state`` as
        for the constructor."""
        return cls(cls.parse(text), index_state=index_state)

    # -- the keyed records ---------------------------------------------------------

    def fields(self) -> Sequence[str]:
        """The record fields this source exposes, in schema order."""
        return self.FIELDS

    def capabilities(self) -> FrozenSet[Tuple[str, str]]:
        """Set of (field, op) pairs the source evaluates natively."""
        return self.CAPABILITIES

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation; the freshness
        experiment compares it against a warehouse's loaded version."""
        return self._version

    def add(self, record: Any) -> None:
        """Insert a record; a duplicate primary key is rejected."""
        key = getattr(record, self.KEY)
        # Under the fetch mutex, so concurrent writers neither both
        # pass the duplicate check nor lose a version bump.
        with self._fetch_mutex():
            if key in self._records:
                raise DataFormatError(
                    f"duplicate {self.FIELDS[0]} {key}", source_name=self.name
                )
            self._records[key] = record
            self._version += 1

    def remove(self, key: Any) -> None:
        """Delete the record with primary key ``key``."""
        with self._fetch_mutex():
            if self._records.pop(key, None) is None:
                raise DataFormatError(
                    f"no {self.FIELDS[0]} {key} to remove",
                    source_name=self.name,
                )
            self._version += 1

    def get(self, key: Any) -> Any:
        """The record object with primary key ``key``, or ``None``."""
        return self._records.get(key)

    def keys(self) -> List[Any]:
        """Every primary key, in order."""
        return sorted(self._records)

    def all_records(self) -> List[Any]:
        """Every record object, in key order."""
        return [record for _, record in sorted(self._records.items())]

    def records(self) -> List[Dict[str, Any]]:
        """Every record's ``as_dict()``, in key order (the extent
        builder).  ``sorted`` copies the dict's items in one step, so
        a concurrent ``add``/``remove`` cannot disturb the loop."""
        return [record.as_dict() for _, record in sorted(self._records.items())]

    def count(self) -> int:
        """Number of records currently stored."""
        return len(self._records)

    # -- native filtering ------------------------------------------------------------

    def supports(self, condition: NativeCondition) -> bool:
        """True when ``condition`` can be evaluated natively here."""
        capabilities = self.capabilities()
        if condition.op == "in":
            return (condition.field, "=") in capabilities or (
                condition.field,
                "in",
            ) in capabilities
        return (condition.field, condition.op) in capabilities

    def indexed_fields(self) -> Tuple[str, ...]:
        """Fields eligible for a hash equality index: the declared
        :attr:`INDEXED_FIELDS`, by default every field the source can
        test for ``=`` natively."""
        if self.INDEXED_FIELDS is not None:
            return self.INDEXED_FIELDS
        return tuple(
            sorted({field for field, op in self.capabilities() if op == "="})
        )

    def native_query(
        self,
        conditions: Iterable[NativeCondition] = (),
        use_index: Optional[bool] = None,
    ) -> List[Record]:
        """Records satisfying every condition, evaluated at the source.

        One candidate loop over the version's extent: an ``=``/``in``
        predicate on an indexed field narrows the candidates to its hash
        index's positions, else every record is one; the other
        conditions filter them.  Both routes return the extent's own
        read-only records in ``records()`` order.  ``use_index``
        overrides :attr:`use_indexes` for one call (property tests and
        benchmarks pin it).  The extent, its index and the hit/scan
        counter come from one version's state under a *single* hold of
        the fetch mutex, so a concurrent mutation can never pair one
        version's index with another version's extent.

        Raises
        ------
        QueryError
            If any condition is outside this source's capabilities —
            the optimizer must not push it here.
        """
        conditions = list(conditions)
        for condition in conditions:
            if not self.supports(condition):
                raise QueryError(
                    f"source {self.name!r} cannot evaluate "
                    f"{condition.render()} natively"
                )
        indexes_on = self.use_indexes if use_index is None else use_index
        driver: Optional[NativeCondition] = None
        if indexes_on:
            indexable = set(self.indexed_fields())
            driver = next(
                (
                    condition
                    for condition in conditions
                    if condition.op in ("=", "in")
                    and condition.field in indexable
                ),
                None,
            )
        index: Optional[EqualityIndex] = None
        with self._fetch_mutex():
            state = self._index_state_locked()
            extent = self._extent_locked(state)
            if driver is not None:
                index = self._equality_index_locked(driver.field, state)
            self._count_locked(
                "scan_queries" if index is None else "index_hits"
            )
        candidates: Iterable[Record] = extent
        rest = conditions
        if index is not None and driver is not None:
            probe_values = driver.value if driver.op == "in" else (driver.value,)
            positions: set = set()
            for value in probe_values:
                for key in _probe_keys(value):
                    positions.update(index.get(key, ()))
            candidates = [extent[position] for position in sorted(positions)]
            rest = [condition for condition in conditions if condition is not driver]
        if not rest:
            return list(candidates)
        return [
            record
            for record in candidates
            if all(
                _evaluate(record.get(condition.field), condition)
                for condition in rest
            )
        ]

    # -- equality indexes ----------------------------------------------------

    def _equality_index_locked(
        self, field: str, state: Dict[str, Any]
    ) -> Optional[EqualityIndex]:
        """The hash index of ``field`` over ``state``'s extent (key ->
        positions), built lazily and shared until the next mutation;
        ``None`` when the field holds unhashable values, so the caller
        scans.  Caller holds the fetch mutex."""
        if field in state["unindexable"]:
            return None
        index = state["fields"].get(field)
        if index is None:
            index = {}
            try:
                for position, record in enumerate(
                    self._extent_locked(state)
                ):
                    value = record.get(field)
                    if value is None:
                        continue
                    items = value if isinstance(value, (list, tuple)) else (value,)
                    for item in items:
                        for key in _index_keys(item):
                            index.setdefault(key, []).append(position)
            except TypeError:
                state["unindexable"].add(field)
                return None
            state["fields"][field] = index
            self._count_locked("index_builds")
        return index

    # -- persistent index snapshots ------------------------------------------

    def export_index_state(self) -> Dict[str, Any]:
        """The equality-index state as one serializable plain dict.

        Forces every :meth:`indexed_fields` index to build first, so
        the export is complete, then returns a structure holding no
        live references into the store — safe to pickle and adopt into
        another store holding *identical* records (same content, same
        ``records()`` order): the persisted positions index into that
        shared order.  The envelope carries ``schema``, ``version``,
        ``record_count`` and the counter-set version, which
        :meth:`adopt_index_state` validates.
        """
        with self._fetch_mutex():
            state = self._index_state_locked()
            for field in self.indexed_fields():
                self._equality_index_locked(field, state)
            return {
                "schema": INDEX_STATE_SCHEMA,
                "counter_schema": FETCH_COUNTER_SCHEMA,
                "source": self.name,
                "version": self.version,
                "record_count": self.count(),
                "fields": {
                    field: {
                        key: tuple(positions)
                        for key, positions in index.items()
                    }
                    for field, index in state["fields"].items()
                },
                "unindexable": sorted(state["unindexable"]),
            }

    def adopt_index_state(self, state: Any) -> bool:
        """Install a previously exported index state, skipping the
        per-field extent scans of a cold start.

        Returns ``True`` on adoption, ``False`` on any mismatch —
        wrong source name, schema or counter-set from the future,
        record count disagreeing with the live extent, or a malformed
        payload — in which case the store is left untouched and
        indexes rebuild lazily as before.  Never raises.

        Deep validity of the key/position structure is the caller's
        responsibility: the persistence layer only hands over payloads
        whose content digest ties them to the exact flat file the
        store was parsed from.  Runs under the same per-source fetch
        mutex as ``_equality_index_locked``, so adoption is safe while
        federated worker threads are probing.
        """
        with self._fetch_mutex():
            return self._adopt_index_state_locked(state)

    def _adopt_index_state_locked(self, state: Any) -> bool:
        try:
            if state.get("schema") != INDEX_STATE_SCHEMA:
                return False
            if state.get("counter_schema", 0) > FETCH_COUNTER_SCHEMA:
                return False
            if state.get("source") != self.name:
                return False
            if state.get("record_count") != self.count():
                return False
            fields = {
                field: dict(index)
                for field, index in state["fields"].items()
            }
            unindexable = set(state.get("unindexable", ()))
        except (AttributeError, KeyError, TypeError, ValueError):
            return False
        self._fetch_index_state = {
            "version": self.version,
            "extent": None,
            "fields": fields,
            "unindexable": unindexable,
        }
        # A store adopts while it loads, never inside a fetch, so only
        # its cumulative count moves (no fetch tally carries it).
        self._fetchpath_counters()["index_adoptions"] += len(fields)
        return True

    def _adopt_or_warn(self, index_state: Optional[Dict[str, Any]]) -> None:
        """Constructor-path adoption: mismatches warn instead of
        failing the build (the fallback is always a correct store)."""
        if index_state is None:
            return
        if not self.adopt_index_state(index_state):
            warnings.warn(
                f"{self.name}: persisted index state does not match "
                "this store; indexes will be rebuilt lazily",
                RuntimeWarning,
                stacklevel=3,
            )

    def fetch_stats(self) -> Dict[str, int]:
        """Cumulative fetch-path counters: native queries answered
        from an equality index vs by scanning, plus cold-start
        accounting — field indexes built by an extent scan
        (``index_builds``) vs adopted from a persisted snapshot
        (``index_adoptions``)."""
        return dict(self._fetchpath_counters())

    def _index_state_locked(self) -> Dict[str, Any]:
        """The version-keyed index state; caller holds ``_fetch_mutex``
        (the ``_locked`` suffix is the machine-checked convention)."""
        state = self.__dict__.get("_fetch_index_state")
        if state is None or state["version"] != self.version:
            state = {
                "version": self.version,
                "extent": None,
                "fields": {},
                "unindexable": set(),
            }
            self._fetch_index_state = state
        return state

    def _extent_locked(self, state: Dict[str, Any]) -> List[Record]:
        """``state``'s extent: one ``records()`` materialization, each
        record wrapped read-only, shared by scans, index hits and field
        indexes (positions refer into it); caller holds the mutex."""
        if state["extent"] is None:
            state["extent"] = [MappingProxyType(record) for record in self.records()]
        return state["extent"]

    def _count_locked(self, counter: str, amount: int = 1) -> None:
        """Move one fetch-path counter: the source's cumulative count
        and the current fetch's tally; caller holds the fetch mutex."""
        self._fetchpath_counters()[counter] += amount
        tally = _current_tally.get()
        if tally is not None:
            tally[counter] += amount

    def _fetchpath_counters(self) -> Dict[str, int]:
        counters = self.__dict__.get("_fetchpath_counts")
        if counters is None:
            fresh = make_counters(
                {
                    "index_hits": 0,
                    "scan_queries": 0,
                    "index_builds": 0,
                    "index_adoptions": 0,
                },
                lock=self._fetch_mutex(),
                owner=f"{type(self).__name__}({self.name})",
            )
            counters = self.__dict__.setdefault("_fetchpath_counts", fresh)
        return counters

    def _fetch_mutex(self) -> Any:
        """Per-source lock guarding index construction and the fetch
        counters (``__dict__.setdefault`` is atomic, so lazy creation
        is itself race-free)."""
        lock = self.__dict__.get("_fetch_lock")
        if lock is None:
            lock = self.__dict__.setdefault(
                "_fetch_lock",
                new_lock(f"{type(self).__name__}._fetch_mutex"),
            )
        return lock

    def describe(self) -> str:
        """Human-readable source description used by the mediator's
        annotation-database-description registry (Figure 1)."""
        capability_text = ", ".join(
            f"{field} {op}" for field, op in sorted(self.capabilities())
        )
        return (
            f"{self.name}: {self.count()} records, fields "
            f"[{', '.join(self.fields())}], native predicates "
            f"[{capability_text}]"
        )


def _evaluate(value: Any, condition: NativeCondition) -> bool:
    """Evaluate one native condition against one field value; a list
    value satisfies it when any of its items does."""
    if value is None:
        return False
    if isinstance(value, (list, tuple)):
        return any(_evaluate_item(item, condition) for item in value)
    return _evaluate_item(value, condition)


def _evaluate_item(item: Any, condition: NativeCondition) -> bool:
    if condition.op == "contains":
        return str(condition.value).lower() in str(item).lower()
    if condition.op == "like":
        return like(str(item), str(condition.value))
    if condition.op == "in":
        return any(compare("=", item, candidate) for candidate in condition.value)
    return compare(condition.op, item, condition.value)


# -- index key normalization --------------------------------------------------
#
# Lorel's coercing equality (repro.lorel.coerce.compare) is not a plain
# hash-equality: the string "2354" equals the integer 2354, True equals
# 1 and "true", yet "01" does NOT equal "1" (string vs string compares
# exactly).  Coerced equality is not even transitive, so one key per
# value cannot reproduce it.  Instead each stored item is indexed under
# a key per *type class* it participates in, and a lookup probes every
# class its query value can coerce into.  `_index_keys`/`_probe_keys`
# are exact mirrors of `comparable_pair`: for every stored item x and
# query value q, probe_keys(q) ∩ index_keys(x) is nonempty iff
# compare("=", x, q) is true.


def _index_keys(value: Any) -> List[Tuple[str, Any]]:
    """The index keys one stored field item is filed under."""
    if isinstance(value, bool):
        return [("bool", value)]
    if isinstance(value, (int, float)):
        keys: List[Tuple[str, Any]] = [("num", value)]
        if value in (0, 1):
            keys.append(("numbool", bool(value)))
        return keys
    if isinstance(value, str):
        keys = [("str", value)]
        number = _as_number(value)
        if number is not None:
            keys.append(("strnum", number))
        as_bool = _as_bool(value)
        if as_bool is not None:
            keys.append(("strbool", as_bool))
        return keys
    if isinstance(value, (bytes, bytearray)):
        return [("bytes", bytes(value))]
    # Types coerced equality can never match positively (None, objects):
    # not indexed, exactly as the scan path never matches them with "=".
    return []


def _probe_keys(value: Any) -> List[Tuple[str, Any]]:
    """The index keys a query value must probe."""
    if isinstance(value, bool):
        return [("bool", value), ("numbool", value), ("strbool", value)]
    if isinstance(value, (int, float)):
        keys: List[Tuple[str, Any]] = [("num", value), ("strnum", value)]
        if value in (0, 1):
            keys.append(("bool", bool(value)))
        return keys
    if isinstance(value, str):
        keys = [("str", value)]
        number = _as_number(value)
        if number is not None:
            keys.append(("num", number))
        as_bool = _as_bool(value)
        if as_bool is not None:
            keys.append(("bool", as_bool))
        return keys
    if isinstance(value, (bytes, bytearray)):
        return [("bytes", bytes(value))]
    return []
