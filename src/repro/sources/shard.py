"""Key-range sharding behind the :class:`DataSource` contract.

Multidatabase federations scale by partitioning local extents across
nodes while keeping the global view stable.  This module brings that
shape to the flat-file stores without touching their callers:

- :class:`SourceShard` — one frozen key-range partition of a store's
  extent, itself a full :class:`~repro.sources.base.DataSource`, so it
  inherits the version-keyed equality indexes and the
  ``export_index_state``/``adopt_index_state`` snapshot machinery per
  shard for free.
- :class:`ShardedSource` — the facade a wrapper plugs in instead of
  the base store.  It satisfies the whole contract (``native_query``,
  index-state export/adopt, ``fetch_stats``), delegating
  un-partitioned concerns (``records``, ``count``, ``version``, store
  mutation, ontology navigation) straight to the base store, so
  wrappers and artifact keys work unchanged.

Equivalence guarantee
---------------------
Shards are *contiguous ranges of the store's canonical record order*
(the flat-file stores enumerate ``records()`` in sorted key order, so
the ranges are key ranges).  Both routes of the base contract's
``native_query`` preserve that order — the index path returns matches in
sorted-position order, the scan path in ``records()`` order — so
concatenating the per-shard results of any condition list in shard
order reproduces the unsharded result byte for byte.  The shard
equivalence property suite pins this down for every catalog question.

Freshness
---------
Partitions are keyed on the *base* store's version counter and rebuilt
lazily under the facade's fetch mutex whenever it moves, exactly like
the base contract's index state; ``ShardedSource.version`` delegates
to the base store, so every version-keyed cache above the wrapper
boundary (result cache, artifact keys, GML) invalidates unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sources.base import (
    FETCH_COUNTER_SCHEMA,
    INDEX_STATE_SCHEMA,
    DataSource,
    NativeCondition,
    Record,
)


class SourceShard(DataSource):
    """One frozen key-range partition of a store's extent.

    A shard is a snapshot: its records, schema and capabilities are
    fixed at partition time and its ``version`` never moves (the
    owning :class:`ShardedSource` replaces the whole shard set when
    the base store mutates).  Inheriting :class:`DataSource` gives it
    the per-shard equality indexes, fetch counters and index-state
    snapshots.
    """

    def __init__(
        self,
        name: str,
        fields: Sequence[str],
        capabilities: Iterable[Tuple[str, str]],
        indexed: Sequence[str],
        records: Sequence[Record],
        version: int = 1,
    ) -> None:
        self.name = name
        self._fields = tuple(fields)
        self._capabilities = frozenset(capabilities)
        self._indexed = tuple(indexed)
        self._records = list(records)
        self._version = version

    def fields(self) -> Sequence[str]:
        return self._fields

    def capabilities(self) -> Iterable[Tuple[str, str]]:
        return self._capabilities

    def indexed_fields(self) -> Tuple[str, ...]:
        # Snapshot of the base store's eligibility, so the per-shard
        # index/scan driver decision matches the unsharded one.
        return self._indexed

    def records(self) -> List[Record]:
        # Fresh dict copies, exactly the base stores' behaviour: the
        # partition's backing dicts never alias records a caller may
        # mutate (the per-shard index snapshot depends on that).
        return [dict(record) for record in self._records]

    def count(self) -> int:
        return len(self._records)

    @property
    def version(self) -> int:
        return self._version


class ShardedSource(DataSource):
    """A key-range sharded facade over one base store.

    Implements the full :class:`DataSource` contract by fanning every
    native query over its shard partitions and concatenating in shard
    order (byte-identical to the base store — see the module
    docstring), and exposes the per-shard surface the stage scheduler
    places fetches on:

    - :attr:`shard_count` / :meth:`shard` — the partition grid;
    - :meth:`shard_query` — one partition's slice of a native query
      (the wrapper routes shard-pinned
      :class:`~repro.mediator.fetch.FetchRequest`\\ s here);
    - :meth:`export_index_state` / :meth:`adopt_index_state` — a
      sharded envelope of per-shard snapshots, schema-gated exactly
      like the flat ``*.idx`` machinery it reuses.

    Everything the contract does not partition — ``records``,
    ``count``, ``version``, mutation methods, ontology navigation
    (``ancestors``/``descendants``), symbol lookups — delegates to the
    base store via ``__getattr__``, so existing wrappers plug a
    sharded source in without a single change.
    """

    def __init__(self, base: DataSource, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        self.shard_count = int(shard_count)
        self.name = base.name
        with self._fetch_mutex():
            self._base = base
            # Cumulative fetch counters of retired partitions, folded
            # in when a base mutation discards a shard set
            # (fetch_stats stays monotone across repartitions).
            self._shard_retired: Dict[str, int] = {}

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        base = self.__dict__.get("_base")
        if base is None:
            raise AttributeError(name)
        return getattr(base, name)

    # -- delegated contract ---------------------------------------------------

    def fields(self) -> Sequence[str]:
        return self._base.fields()

    def capabilities(self) -> Iterable[Tuple[str, str]]:
        return self._base.capabilities()

    def indexed_fields(self) -> Tuple[str, ...]:
        return self._base.indexed_fields()

    def records(self) -> List[Record]:
        return self._base.records()

    def count(self) -> int:
        return self._base.count()

    @property
    def version(self) -> int:
        return self._base.version

    # -- partitioning ---------------------------------------------------------

    def _shards_locked(self) -> List[SourceShard]:
        """The current shard set, (re)partitioned lazily whenever the
        base version moves; caller holds ``_fetch_mutex``."""
        state = self.__dict__.get("_shard_state")
        version = self._base.version
        if state is None or state["version"] != version:
            if state is not None:
                # Fold the dying partitions' counters into the retired
                # totals so fetch_stats never goes backwards.
                for shard in state["shards"]:
                    for key, value in shard.fetch_stats().items():
                        self._shard_retired[key] = (
                            self._shard_retired.get(key, 0) + value
                        )
            records = self._base.records()
            total = len(records)
            fields = tuple(self._base.fields())
            capabilities = frozenset(self._base.capabilities())
            indexed = tuple(self._base.indexed_fields())
            shards = []
            for index in range(self.shard_count):
                start = index * total // self.shard_count
                stop = (index + 1) * total // self.shard_count
                shards.append(
                    SourceShard(
                        f"{self.name}#shard{index}/{self.shard_count}",
                        fields,
                        capabilities,
                        indexed,
                        records[start:stop],
                        version=version,
                    )
                )
            state = {"version": version, "shards": shards}
            self._shard_state = state
        result: List[SourceShard] = state["shards"]
        return result

    def shards(self) -> List[SourceShard]:
        """The current shard set (a stable snapshot list)."""
        with self._fetch_mutex():
            return list(self._shards_locked())

    def shard(self, index: int) -> SourceShard:
        """One partition of the current grid."""
        return self.shards()[index]

    def _use_index(self, use_index: Optional[bool]) -> bool:
        # The base store's master switch drives every partition, so
        # benchmarks flipping ``use_indexes`` on the base store govern
        # the sharded path identically.
        if use_index is not None:
            return use_index
        return self._base.use_indexes

    # -- per-shard queries ----------------------------------------------------

    def shard_query(
        self,
        index: int,
        conditions: Iterable[NativeCondition] = (),
        use_index: Optional[bool] = None,
    ) -> List[Record]:
        """One partition's slice of ``native_query(conditions)``."""
        return self.shard(index).native_query(
            conditions, use_index=self._use_index(use_index)
        )

    # -- whole-extent queries (shard-order concatenation) ---------------------

    def native_query(
        self,
        conditions: Iterable[NativeCondition] = (),
        use_index: Optional[bool] = None,
    ) -> List[Record]:
        conditions = list(conditions)
        matched: List[Record] = []
        for index in range(self.shard_count):
            matched.extend(
                self.shard_query(index, conditions, use_index=use_index)
            )
        return matched

    # -- sharded index snapshots ----------------------------------------------

    def export_index_state(self) -> Dict[str, Any]:
        """A sharded snapshot envelope: the flat machinery's schema
        gates (``schema``, ``counter_schema``, ``source``,
        ``record_count``) plus the grid width and one per-shard
        export under ``shards``."""
        shards = self.shards()
        return {
            "schema": INDEX_STATE_SCHEMA,
            "counter_schema": FETCH_COUNTER_SCHEMA,
            "source": self.name,
            "version": self.version,
            "record_count": self.count(),
            "shard_count": self.shard_count,
            "shards": [shard.export_index_state() for shard in shards],
        }

    def adopt_index_state(self, state: Any) -> bool:
        """Install a sharded snapshot produced by
        :meth:`export_index_state` over an identical extent.

        Validates the envelope (schema, counter-set, source name,
        record count, grid width) before touching anything, then
        adopts shard by shard — each partition re-validates its own
        part exactly like the flat machinery.  Returns ``False`` on
        any mismatch; partitions whose part failed rebuild their
        indexes lazily, which is always correct.
        """
        try:
            if state.get("schema") != INDEX_STATE_SCHEMA:
                return False
            if state.get("counter_schema", 0) > FETCH_COUNTER_SCHEMA:
                return False
            if state.get("source") != self.name:
                return False
            if state.get("record_count") != self.count():
                return False
            if state.get("shard_count") != self.shard_count:
                return False
            parts = list(state["shards"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return False
        if len(parts) != self.shard_count:
            return False
        shards = self.shards()
        adopted = [
            shard.adopt_index_state(part)
            for shard, part in zip(shards, parts)
        ]
        return all(adopted)

    # -- accounting -----------------------------------------------------------

    def fetch_stats(self) -> Dict[str, int]:
        """Cumulative fetch-path counters summed over the current
        partitions plus every retired partition set (monotone across
        repartitions)."""
        with self._fetch_mutex():
            shards = list(self._shards_locked())
            totals = dict(self._shard_retired)
        for shard in shards:
            for key, value in shard.fetch_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals
