"""The wrapper-boundary fetch protocol: FetchRequest/FetchReply.

The paper's mediator queries three *live, remote* web databases, so
the real system's bottleneck and failure mode is the wrapper boundary:
per-source fetches are independent yet naturally sequential in naive
code, and a single unavailable source would kill a whole query.
Mediator peers handle this explicitly — YeastMed tolerates unavailable
sources and returns partial integrated answers; BioThings Explorer
runs federated sub-queries concurrently with per-API timeouts.  This
module gives ANNODA both behaviours behind one explicit protocol:

- :class:`FetchRequest` — what to fetch (OML-label conditions), a
  diagnostic purpose and the request budget it shares with its
  query;
- :class:`FetchReply` — what came back: records, per-attempt timings,
  the request's own index/scan/failover tally, and a terminal status
  (``ok`` / ``error`` / ``timeout``) instead of an exception;
- :class:`FederationPolicy` — how hard every request tries (worker
  count, timeout, retries, backoff, and whether a failing source
  degrades the answer or aborts it);
- :class:`FederatedFetcher` — issues independent per-source requests
  concurrently on a thread pool, retrying with exponential backoff;
- :class:`FlakyWrapper` — fault injection (error rate, latency,
  blackout windows) for tests and the concurrency benchmark.

Nothing here imports the wrapper or executor layers, so the protocol
sits cleanly between them (wrappers duck-type the request; the
executor consumes replies).
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sources.base import new_tally, tallying
from repro.trace.recorder import NULL_RECORDER
from repro.util.cancel import RequestBudget
from repro.util.clock import default_clock
from repro.util.errors import IntegrationError
from repro.util.locks import new_lock
from repro.util.rng import DeterministicRng

#: Reply statuses a fetch can terminate with.
FETCH_STATUSES = ("ok", "error", "timeout")

#: Longest sleep between two attempts of one fetch, in seconds.
BACKOFF_CAP = 0.5


def _normalize_conditions(
    conditions: Iterable[Any],
) -> Tuple[Tuple[str, str, Any], ...]:
    """Conditions as a tuple of plain ``(label, op, value)`` triples.

    Accepts any iterable of triple-unpackable items (plain tuples,
    :class:`~repro.mediator.decompose.Condition` objects, lists); the
    value of an ``in`` condition is frozen to a tuple so the request
    stays immutable.
    """
    normalized = []
    for condition in conditions:
        if hasattr(condition, "attribute"):
            label, op, value = (
                condition.attribute, condition.op, condition.value
            )
        else:
            label, op, value = condition
        if op == "in" and not isinstance(value, tuple):
            value = tuple(value)
        normalized.append((label, op, value))
    return tuple(normalized)


@dataclass(frozen=True)
class FetchRequest:
    """One source fetch: what to retrieve.

    ``conditions`` are OML-label triples (the wrapper translates them
    to source-native fields).  ``purpose`` is a diagnostic tag carried
    into the reply and the execution report.  How hard the fetch tries
    (timeout, retries, backoff) is the :class:`FederationPolicy`'s;
    how long it may take in all is its ``budget``'s.
    """

    conditions: Tuple[Tuple[str, str, Any], ...] = ()
    purpose: str = "fetch"
    #: Cooperative whole-request budget
    #: (:class:`~repro.util.cancel.RequestBudget`) shared by every
    #: fetch one mediator/service request issues: an expired or
    #: cancelled budget turns the fetch into an immediate ``timeout``
    #: reply.  Excluded from equality/hash so requests stay usable as
    #: cache keys.
    budget: Optional[RequestBudget] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "conditions", _normalize_conditions(self.conditions)
        )

    @classmethod
    def where(cls, *conditions: Any, **kwargs: Any) -> "FetchRequest":
        """``FetchRequest.where(("Symbol", "=", "BRCA1"))`` sugar."""
        return cls(conditions=conditions, **kwargs)

    def render(self) -> str:
        rendered = (
            " and ".join(
                f"{label} {op} {value!r}"
                for label, op, value in self.conditions
            )
            or "true"
        )
        return f"{self.purpose}: {rendered}"


@dataclass(frozen=True)
class FetchAttempt:
    """One timed try at a source: number, wall seconds, outcome."""

    number: int
    elapsed: float
    outcome: str  # "ok" | "error" | "timeout"
    error: Optional[str] = None


@dataclass(frozen=True)
class FetchReply:
    """What one :class:`FetchRequest` produced.

    A failed or timed-out fetch is a *reply*, not an exception — the
    caller decides (per its federation policy) whether to degrade the
    integrated answer or abort it via :meth:`raise_if_failed`.
    """

    source: str
    request: FetchRequest
    #: Tuple of record dicts.
    records: Any = ()
    status: str = "ok"
    attempts: Tuple[FetchAttempt, ...] = ()
    elapsed: float = 0.0
    error: Optional[str] = None
    #: What this request's native queries did across its attempts
    #: (:func:`~repro.sources.base.new_tally`): index hits, scans,
    #: index builds and adoptions, and replica failovers.  Counted per
    #: request, so concurrent fetches never count each other's work.
    tally: Mapping[str, int] = field(default_factory=new_tally)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def index_hits(self) -> int:
        return self.tally["index_hits"]

    @property
    def scan_queries(self) -> int:
        return self.tally["scan_queries"]

    @property
    def retries(self) -> int:
        """Attempts beyond the first (the spent retry budget)."""
        return max(0, len(self.attempts) - 1)

    @property
    def timeouts(self) -> int:
        return sum(
            1 for attempt in self.attempts if attempt.outcome == "timeout"
        )

    def raise_if_failed(self) -> "FetchReply":
        if not self.ok:
            raise IntegrationError(
                f"source {self.source!r} failed during fetch: {self.error}"
            )
        return self

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class FederationPolicy:
    """Fault-tolerance and concurrency knobs of the wrapper boundary.

    The defaults reproduce the seed's semantics exactly (no retries,
    no timeouts, failures abort the query) while fetching independent
    per-source steps concurrently; set ``on_failure="degrade"`` for
    YeastMed-style partial answers and ``retries``/``timeout`` for
    BioThings-style per-API resilience.
    """

    #: Thread-pool width for independent per-source fetches; 1 runs
    #: the seed's sequential path.
    max_workers: int = 4
    #: Per-attempt timeout in seconds (None: wait forever).
    timeout: Optional[float] = None
    #: Retry budget beyond the first attempt.
    retries: int = 0
    #: Base of the exponential backoff between attempts, in seconds
    #: (attempt *n* sleeps ``backoff * 2**(n-1)``, capped at
    #: :data:`BACKOFF_CAP`).  Kept jitter-free so retried executions
    #: stay deterministic.
    backoff: float = 0.02
    #: ``"raise"`` aborts the query on a failed source (seed
    #: behaviour); ``"degrade"`` returns a partial integrated answer
    #: whose report marks the source degraded.
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.on_failure not in ("raise", "degrade"):
            raise ValueError(
                f"on_failure must be 'raise' or 'degrade', "
                f"not {self.on_failure!r}"
            )
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    @property
    def degrades(self) -> bool:
        return self.on_failure == "degrade"


class FederatedFetcher:
    """Concurrent, fault-tolerant fetch dispatch over wrappers.

    One fetcher (and its thread pool) is shared by all executions of a
    mediator; :meth:`fetch_all` issues a batch of independent
    ``(wrapper, request)`` jobs concurrently and returns replies in
    job order, so callers stay deterministic regardless of completion
    order.  Each job retries with exponential backoff inside its
    request's budget; a per-attempt timeout abandons the attempt's
    worker thread (the slow call keeps running in the background —
    exactly the semantics of abandoning a slow HTTP request).
    """

    def __init__(self, policy: Optional[FederationPolicy] = None) -> None:
        self.policy = policy or FederationPolicy()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = new_lock("FederatedFetcher._lock")

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.policy.max_workers,
                    thread_name_prefix="annoda-fetch",
                )
            return self._pool

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    def __enter__(self) -> "FederatedFetcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def fetch(self, wrapper: Any, request: FetchRequest,
              recorder: Any = NULL_RECORDER) -> FetchReply:
        """Run one request to completion (retries included)."""
        return self._run_job(
            wrapper, request, recorder, recorder.current(),
            recorder.next_sequence(),
        )

    def fetch_all(
        self,
        jobs: Iterable[Tuple[Any, FetchRequest]],
        recorder: Any = NULL_RECORDER,
    ) -> List[FetchReply]:
        """Run ``(wrapper, request)`` jobs concurrently.

        Replies come back in job order.  With ``max_workers=1`` (or a
        single job) the jobs run sequentially on the calling thread —
        the seed's exact execution order.

        Tracing stays deterministic under the pool: the calling thread
        captures its current span as the shared parent and reserves
        one sequence slot per job *in job order*, so the per-request
        spans the workers build always export as siblings in job
        order, regardless of completion order.
        """
        jobs = list(jobs)
        parent = recorder.current()
        sequences = [recorder.next_sequence() for _ in jobs]
        if len(jobs) <= 1 or self.policy.max_workers <= 1:
            return [
                self._run_job(wrapper, request, recorder, parent, sequence)
                for (wrapper, request), sequence in zip(jobs, sequences)
            ]
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                self._run_job, wrapper, request, recorder, parent, sequence
            )
            for (wrapper, request), sequence in zip(jobs, sequences)
        ]
        return [future.result() for future in futures]

    # -- one job -------------------------------------------------------------

    def _run_job(self, wrapper: Any, request: FetchRequest,
                 recorder: Any = NULL_RECORDER, parent: Any = None,
                 sequence: Optional[int] = None) -> FetchReply:
        if not recorder.enabled:
            # The zero-cost-when-off path: no span, no name formatting.
            return self._run_request(wrapper, request)
        attributes = {"source": wrapper.name, "purpose": request.purpose}
        trace_attributes = getattr(wrapper, "trace_attributes", None)
        if trace_attributes is not None:
            attributes.update(trace_attributes())
        span = recorder.open_span(
            f"fetch:{wrapper.name}",
            attributes=attributes,
            parent=parent,
            sequence=sequence,
        )
        try:
            reply = self._run_request(wrapper, request)
        except BaseException as exc:
            recorder.close_span(span, error=exc)
            raise
        span.incr("rows", len(reply.records))
        span.incr("attempts", len(reply.attempts))
        span.incr("retries", reply.retries)
        span.incr("timeouts", reply.timeouts)
        span.set("status", reply.status)
        if reply.error is not None:
            span.set("error", reply.error)
        if reply.index_hits or reply.scan_queries:
            span.set("reply_index_hits", reply.index_hits)
            span.set("reply_scan_queries", reply.scan_queries)
        recorder.close_span(span)
        return reply

    def _run_request(self, wrapper: Any, request: FetchRequest) -> FetchReply:
        policy = self.policy
        budget = request.budget
        started = time.perf_counter()
        tally = new_tally()
        attempts: List[FetchAttempt] = []
        records: Any = ()
        status, error = "error", "no attempt made"
        for number in range(policy.retries + 1):
            # The cooperative request budget bounds all fetches of one
            # mediator/service request together.
            remaining = None if budget is None else budget.remaining()
            if budget is not None and remaining is not None and remaining <= 0:
                status, error = "timeout", (
                    f"{budget.describe()}; gave up after "
                    f"{len(attempts)} attempt(s)"
                )
                break
            attempt_timeout = policy.timeout
            if remaining is not None:
                attempt_timeout = (
                    remaining
                    if attempt_timeout is None
                    else min(attempt_timeout, remaining)
                )
            with tallying(tally):
                outcome, result, attempt_error, elapsed = self._attempt(
                    wrapper, request, attempt_timeout
                )
            attempts.append(
                FetchAttempt(number + 1, elapsed, outcome, attempt_error)
            )
            if outcome == "ok":
                records = tuple(result)
                status, error = "ok", None
                break
            status, error = outcome, attempt_error
            if number < policy.retries:
                delay = min(policy.backoff * (2 ** number), BACKOFF_CAP)
                if remaining is not None:
                    delay = min(delay, max(0.0, remaining - elapsed))
                if delay > 0:
                    # Through the clock seam: a FakeClock fast-forwards
                    # the backoff instead of parking the worker thread.
                    default_clock().sleep(delay)
        return FetchReply(
            source=wrapper.name,
            request=request,
            records=records,
            status=status,
            attempts=tuple(attempts),
            elapsed=time.perf_counter() - started,
            error=error,
            # A copy: an abandoned (timed-out) attempt may still add to
            # the live tally after this reply is folded.
            tally=dict(tally),
        )

    @staticmethod
    def _attempt(
        wrapper: Any, request: FetchRequest, timeout: Optional[float]
    ) -> Tuple[str, Any, Optional[str], float]:
        started = time.perf_counter()
        if timeout is None:
            try:
                records = wrapper.fetch(request)
            except Exception as exc:
                return (
                    "error", None, str(exc) or type(exc).__name__,
                    time.perf_counter() - started,
                )
            return "ok", records, None, time.perf_counter() - started
        box: Dict[str, Any] = {}

        def run() -> None:
            try:
                box["records"] = wrapper.fetch(request)
            except Exception as exc:  # delivered to the waiting thread
                box["error"] = exc

        # The attempt thread counts into the caller's fetch tally.
        thread = threading.Thread(
            target=contextvars.copy_context().run, args=(run,), daemon=True
        )
        thread.start()
        thread.join(timeout)
        elapsed = time.perf_counter() - started
        if thread.is_alive():
            return (
                "timeout", None,
                f"no reply within {timeout:.3f}s", elapsed,
            )
        if "error" in box:
            exc = box["error"]
            return "error", None, str(exc) or type(exc).__name__, elapsed
        return "ok", box.get("records", []), None, elapsed


class FlakyWrapper:
    """Fault-injection proxy around any wrapper.

    Delegates everything to the wrapped wrapper but makes ``fetch``
    misbehave on demand:

    - ``error_rate`` — deterministic (seeded) fraction of calls that
      raise :class:`ConnectionError`;
    - ``latency`` — seconds slept before every call (simulated network
      round-trip);
    - ``fail_first`` — the first N calls fail regardless of rate
      (recovers afterwards: the retry-success scenario);
    - ``blackout`` — while True every call fails (toggle it to
      simulate an outage window);
    - ``blackout_windows`` — ``(first_call, last_call)`` inclusive
      call-count ranges during which calls fail.

    Counters (``calls``, ``failures``) and the RNG are lock-protected
    so concurrent fetches inject faults consistently.
    """

    def __init__(self, wrapper: Any, error_rate: float = 0.0,
                 latency: float = 0.0, fail_first: int = 0,
                 blackout: bool = False,
                 blackout_windows: Iterable[Tuple[int, int]] = (),
                 seed: int = 0) -> None:
        self._wrapped = wrapper
        self.error_rate = error_rate
        self.latency = latency
        self.fail_first = fail_first
        self.blackout = blackout
        self.blackout_windows = tuple(blackout_windows)
        self.calls = 0
        self.failures = 0
        self._rng = DeterministicRng(seed)
        self._mutex = new_lock("FlakyWrapper._mutex")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._wrapped, name)

    @property
    def wrapped(self) -> Any:
        return self._wrapped

    def fetch(self, request: Any = ()) -> Any:
        with self._mutex:
            self.calls += 1
            number = self.calls
            fail = self._should_fail(number)
            if fail:
                self.failures += 1
        if self.latency > 0:
            default_clock().sleep(self.latency)
        if fail:
            raise ConnectionError(
                f"injected fault on {self._wrapped.name} "
                f"(call {number})"
            )
        return self._wrapped.fetch(request)

    def _should_fail(self, number: int) -> bool:
        if self.blackout:
            return True
        for first, last in self.blackout_windows:
            if first <= number <= last:
                return True
        if number <= self.fail_first:
            return True
        if self.error_rate > 0 and self._rng.random() < self.error_rate:
            return True
        return False
