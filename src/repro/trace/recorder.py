"""The query flight recorder: hierarchical spans over one execution.

A :class:`TraceRecorder` is scoped to one query: every pipeline stage
opens a :class:`Span` (``with recorder.span("reconcile") as span:``),
annotates it with attributes and counters, and the closed tree becomes
:attr:`IntegratedResult.trace`.  The default recorder everywhere is
the :data:`NULL_RECORDER` singleton whose spans are shared no-ops, so
tracing is zero-cost when off.

Thread correctness (DESIGN §11): the *current span* is thread-local —
each :class:`~repro.mediator.fetch.FederatedFetcher` worker builds its
fetch span on its own stack — while the span *buffer* (attachment of
children to a shared parent) is guarded by one recorder lock created
through the :mod:`repro.util.locks` seam, so the racecheck plugin
audits it.  Sibling order is decided by *sequence numbers*, not by
completion order: concurrent fetches may close in any order, yet the
exported tree is deterministic because the dispatching thread reserves
the sequence range in job order.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional

from repro.util.clock import Clock, MONOTONIC_CLOCK
from repro.util.errors import AnnodaError
from repro.util.locks import new_lock

#: Statuses a span can close with.
SPAN_STATUSES = ("ok", "error")


class TraceError(AnnodaError):
    """A span was misused (re-entered, closed twice, never opened)."""


class Span:
    """One timed stage: name, interval, attributes, counters, children.

    Spans are created by a recorder, never directly.  ``attributes``
    describe the stage (source name, purpose, plan shape); ``counters``
    carry the work accounting of
    :class:`~repro.mediator.executor.ExecutionReport` — each counter
    lives on the spans of the stages that moved it, so the tree totals
    reconcile with the flat report.
    """

    __slots__ = (
        "name", "sequence", "start", "end", "status", "error",
        "attributes", "counters", "_children",
    )

    def __init__(self, name: str, sequence: int, start: float,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.sequence = sequence
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.counters: Dict[str, int] = {}
        self._children: List["Span"] = []

    # -- annotation ----------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        """Set one descriptive attribute."""
        self.attributes[key] = value

    def incr(self, counter: str, amount: int = 1) -> None:
        """Add to one work counter (created at zero on first use)."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set_counter(self, counter: str, value: int) -> None:
        """Set one work counter to an absolute value (used for
        counters computed as end-of-stage deltas)."""
        self.counters[counter] = value

    # -- structure -----------------------------------------------------------

    @property
    def children(self) -> List["Span"]:
        """Child spans in deterministic (sequence) order."""
        return sorted(self._children, key=lambda span: span.sequence)

    @property
    def duration(self) -> Optional[float]:
        """Elapsed seconds, or ``None`` while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, siblings in
        sequence order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) named ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant (or self) named ``name``, depth-first."""
        return [span for span in self.walk() if span.name == name]

    def __repr__(self) -> str:
        timing = (
            f"{self.duration * 1e3:.1f}ms" if self.closed else "open"
        )
        return f"Span({self.name!r}, {timing}, {len(self._children)} children)"


class _SpanContext:
    """The context manager handed out by :meth:`TraceRecorder.span`."""

    __slots__ = ("_recorder", "_name", "_attributes", "_parent", "_span")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 attributes: Optional[Dict[str, Any]],
                 parent: Optional[Span]) -> None:
        self._recorder = recorder
        self._name = name
        self._attributes = attributes
        self._parent = parent
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        if self._span is not None:
            raise TraceError(
                f"span context for {self._name!r} cannot be re-entered"
            )
        self._span = self._recorder.open_span(
            self._name, attributes=self._attributes, parent=self._parent
        )
        return self._span

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> bool:
        assert self._span is not None
        self._recorder.close_span(self._span, error=exc_value)
        return False


class TraceRecorder:
    """Query-scoped recorder building one deterministic span tree."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else MONOTONIC_CLOCK
        self._lock = new_lock("TraceRecorder._lock")
        self._local = threading.local()
        self._sequence = 0
        self.root: Optional[Span] = None

    # -- the context-manager API (what instrumented code uses) ---------------

    def span(self, name: str, attributes: Optional[Dict[str, Any]] = None,
             parent: Optional[Span] = None) -> _SpanContext:
        """``with recorder.span("reconcile") as span:`` — open a child
        of the current span (or of ``parent`` when crossing threads),
        closed exactly once on exit, marked ``error`` on exception."""
        return _SpanContext(self, name, attributes, parent)

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]  # type: ignore[no-any-return]
        return None

    # -- the manual API (the fetcher's cross-thread path) --------------------

    def next_sequence(self) -> int:
        """Reserve one sibling-order slot.

        The fetcher reserves a slot per job *in job order on the
        dispatching thread* before fanning out, so the exported tree
        orders concurrent fetch spans deterministically no matter
        which worker finishes first.
        """
        with self._lock:
            self._sequence += 1
            return self._sequence

    def open_span(self, name: str,
                  attributes: Optional[Dict[str, Any]] = None,
                  parent: Optional[Span] = None,
                  sequence: Optional[int] = None) -> Span:
        """Open a span and push it on this thread's stack.

        ``parent`` overrides the thread-local current span (pass the
        dispatching thread's span when opening from a worker).  With no
        parent anywhere the span becomes the recorder's root; a second
        parentless span is a misuse.
        """
        if sequence is None:
            sequence = self.next_sequence()
        start = self.clock.now()
        span = Span(name, sequence, start, attributes)
        attach_to = parent if parent is not None else self.current()
        with self._lock:
            if attach_to is not None:
                attach_to._children.append(span)
            elif self.root is None:
                self.root = span
            else:
                raise TraceError(
                    f"span {name!r} has no parent but the trace already "
                    f"has root {self.root.name!r}"
                )
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)
        return span

    def close_span(self, span: Span,
                   error: Optional[BaseException] = None) -> Span:
        """Stamp the end time and pop the thread's stack — exactly once.

        A second close raises :class:`TraceError`: the well-formedness
        property tests pin this down even for spans that fail or
        degrade mid-stage.
        """
        if span.closed:
            raise TraceError(f"span {span.name!r} is already closed")
        if error is not None:
            span.status = "error"
            span.error = str(error) or type(error).__name__
        span.end = self.clock.now()
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:
            stack.remove(span)
        return span


class _NullSpan:
    """The shared do-nothing span: every operation is a no-op."""

    __slots__ = ()

    name = "null"
    sequence = 0
    start = 0.0
    end = 0.0
    status = "ok"
    error = None
    attributes: Dict[str, Any] = {}
    counters: Dict[str, int] = {}
    children: List[Span] = []
    duration = 0.0
    closed = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def incr(self, counter: str, amount: int = 1) -> None:
        pass

    def set_counter(self, counter: str, value: int) -> None:
        pass

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> List[Span]:
        return []

    def __repr__(self) -> str:
        return "NullSpan()"


#: The shared no-op span every :data:`NULL_RECORDER` call hands out.
NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-cost recorder installed when tracing is off.

    ``span()`` returns the shared :data:`NULL_SPAN` (no allocation, no
    clock read, no locking); ``current()`` is ``None``; the root stays
    ``None`` so callers can tell "not traced" from "empty trace".
    """

    enabled = False
    root = None
    clock = MONOTONIC_CLOCK

    def span(self, name: str, attributes: Optional[Dict[str, Any]] = None,
             parent: Optional[Span] = None) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def next_sequence(self) -> int:
        return 0

    def open_span(self, name: str,
                  attributes: Optional[Dict[str, Any]] = None,
                  parent: Optional[Span] = None,
                  sequence: Optional[int] = None) -> _NullSpan:
        return NULL_SPAN

    def close_span(self, span: Any,
                   error: Optional[BaseException] = None) -> _NullSpan:
        return NULL_SPAN


#: The process-wide default recorder (tracing off).
NULL_RECORDER = NullRecorder()
