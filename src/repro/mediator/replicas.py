"""Replica sets: N wrappers of one source behind one registration.

Federated biomedical engines route sub-queries across redundant
endpoints so one dead node never costs the whole source.  A
:class:`ReplicaSet` brings that to the wrapper registry: it *is* a
wrapper (same duck-typed surface — ``name``, ``version``, ``fetch``,
``supports``, schema export, ontology navigation all delegate), but
``fetch`` starts at the primary and rotates to the next replica on
failure, *before* the :class:`~repro.mediator.fetch.FederationPolicy`
ever sees one — degradation is the last resort, after every replica
of the source refused.

Failure composition order (innermost first):
``replica failover → per-request retries → policy``.

Every replica serves the same logical extent (typically its own
wrapper over one consistent store), so which replica answers never
changes the answer — the failover suite pins that down for every
catalog question.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.sources.base import current_tally


class ReplicaSet:
    """N interchangeable wrappers of one source, with failover.

    Holds no mutable state, so the federated fetcher may call
    :meth:`fetch` from several pool threads at once; each failover is
    counted in the tally of the fetch it serves.
    """

    def __init__(self, replicas: Iterable[Any]) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a ReplicaSet needs at least one replica")
        names = {replica.name for replica in replicas}
        if len(names) != 1:
            raise ValueError(
                f"replicas must serve one source, got {sorted(names)}"
            )
        self._replicas = replicas

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        replicas = self.__dict__.get("_replicas")
        if not replicas:
            raise AttributeError(name)
        return getattr(replicas[0], name)

    # -- identity -------------------------------------------------------------

    @property
    def replicas(self) -> Tuple[Any, ...]:
        return tuple(self._replicas)

    @property
    def name(self) -> str:
        name: str = self._replicas[0].name
        return name

    @property
    def version(self) -> int:
        version: int = self._replicas[0].version
        return version

    @property
    def source(self) -> Any:
        return self._replicas[0].source

    def trace_attributes(self) -> Any:
        attributes = {}
        inner = getattr(self._replicas[0], "trace_attributes", None)
        if inner is not None:
            attributes.update(inner())
        attributes["replicas"] = len(self._replicas)
        return attributes

    # -- failover -------------------------------------------------------------

    def fetch(self, request: Any) -> Any:
        """Fetch from the primary, failing over through the siblings in
        order; raises only after *every* replica failed (which is when
        the federation policy's retry/degrade semantics take over — a
        dead replica alone never degrades the source).

        Each failover is counted in the tally of the fetch being served
        (:func:`~repro.sources.base.tallying`), which its reply carries
        into the execution's stats."""
        last_error: BaseException = IndexError("no replicas")
        for number, replica in enumerate(self._replicas, start=1):
            try:
                return replica.fetch(request)
            except Exception as exc:
                last_error = exc
                tally = current_tally()
                if number < len(self._replicas) and tally is not None:
                    tally["replica_failovers"] += 1
        raise last_error
