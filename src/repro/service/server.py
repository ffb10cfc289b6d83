"""ANNODA as a long-lived query service.

:class:`AnnodaService` is the transport-independent core.  It admits
each request through one gate (at most ``workers`` requests run at
once, at most ``queue_capacity`` more wait for a seat, and the rest are
shed at once with 429) and answers it on the calling thread, with a
per-request deadline budget, a structured request log and merged
service/pipeline metrics.  The HTTP layer (:class:`AnnodaHTTPServer`,
stdlib ``ThreadingHTTPServer``, no new dependencies) is a thin shell
over it, in which each ``POST /query`` runs on the handler thread the
server starts for its connection; so the whole concurrency surface is
testable in-process without sockets.

Endpoints:

- ``POST /query`` — a :class:`~repro.service.types.ServiceRequest`
  JSON body; answers 200 (full or degraded-partial), 400 (malformed),
  429 + ``Retry-After`` (every seat taken and the wait line full),
  503 (shutting down);
- ``GET /questions`` — the catalog question names and their params;
- ``GET /metrics`` — the service + pipeline counter snapshot, plus
  the federation cache's per-kind hits, misses and entries;
- ``GET /requests`` — recent structured request-log records;
- ``GET /healthz`` — liveness plus waiting and running counts.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, Optional
from urllib.parse import urlparse

from repro.questions.catalog import QuestionCatalog
from repro.service.metrics import ServiceMetrics
from repro.service.requestlog import RequestLog, log_record_shape
from repro.service.types import (
    CATALOG_PARAMS,
    STATUS_BAD_REQUEST,
    STATUS_ERROR,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_SHED,
    STATUS_SHUTTING_DOWN,
    BadRequest,
    ServiceRequest,
    ServiceResponse,
)
from repro.trace.export import trace_shape
from repro.util.cancel import RequestBudget
from repro.util.errors import QueryError
from repro.util.locks import new_lock


@dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of one :class:`AnnodaService`."""

    #: Requests that may wait for a seat; a full wait line sheds with
    #: 429.
    queue_capacity: int = 64
    #: Requests that may run at once (the seats).
    workers: int = 4
    #: Deadline (seconds) applied to requests that don't set one;
    #: ``None`` leaves them unbounded.
    default_deadline: Optional[float] = None
    #: ``Retry-After`` hint (seconds) on shed responses.
    retry_after: float = 0.05
    #: Ring size of the structured request log.
    request_log_size: int = 256


class AnnodaService:
    """Admission-controlled query execution over one federation.

    :meth:`ask` answers each request on the thread that calls it.  One
    gate admits them: a condition over ``AnnodaService._seats`` guards
    the ids waiting for a seat (first come, first served), the running
    requests' budgets, the closing flag and the request-id counter.  A
    request takes its seat and registers its budget under one hold of
    that lock, so a fast shutdown's refusal of the waiters and its
    cancellation of the running budgets miss no request between them.
    """

    def __init__(self, annoda: Any,
                 config: Optional[ServiceConfig] = None) -> None:
        self.annoda = annoda
        self.config = config or ServiceConfig()
        if self.config.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.config.workers < 1:
            raise ValueError("the service needs at least 1 worker")
        self.metrics = ServiceMetrics()
        self.request_log = RequestLog(self.config.request_log_size)
        self._seats = threading.Condition(new_lock("AnnodaService._seats"))
        self._waiting: Deque[int] = deque()
        self._running: Dict[int, RequestBudget] = {}
        self._closing = False
        self._next_id = 0

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service; new arrivals get 503 either way.

        ``drain=True`` (graceful) answers every waiting and running
        request.  ``drain=False`` (fast) refuses the waiting ones with
        503 and cancels the running ones' budgets, so their fetches
        time out at once and they return degraded answers.  Returns
        once nothing waits or runs, or when ``timeout`` expires.
        """
        with self._seats:
            self._closing = True
            if not drain:
                self._waiting.clear()
                for budget in self._running.values():
                    budget.cancel("service shutdown")
            self._seats.notify_all()
            self._seats.wait_for(
                lambda: not self._waiting and not self._running, timeout
            )

    def __enter__(self) -> "AnnodaService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=True)

    # -- admission -----------------------------------------------------------

    def ask(self, request: ServiceRequest) -> ServiceResponse:
        """Admit one request and answer it on the calling thread.

        It runs at once when a seat is free and nobody waits; it waits
        for a seat when the wait line has room; otherwise it is shed
        at once with 429.  The deadline budget starts on arrival, so
        time spent waiting counts against it.
        """
        self.metrics.add("requests_received")
        deadline = request.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        budget = RequestBudget(deadline=deadline)
        with self._seats:
            self._next_id += 1
            request_id = self._next_id
            depth = len(self._waiting)
            if self._closing:
                refusal: Optional[str] = "shutdown"
            elif depth >= self.config.queue_capacity:
                refusal = "shed"
            else:
                refusal = None
                self._waiting.append(request_id)
        if refusal is None:
            self.metrics.add("requests_admitted")
            self.metrics.observe_queue_depth(depth + 1)
            if not self._take_seat(request_id, budget=budget):
                refusal = "shutdown"
        if refusal is not None:
            return self._refuse(request, request_id, refusal, budget=budget)
        try:
            return self._handle(request, request_id, budget=budget)
        except Exception as exc:  # a handler bug must not drop the client
            return ServiceResponse(
                status=STATUS_ERROR,
                body=self._envelope(
                    request, request_id, outcome="error",
                    error=str(exc) or type(exc).__name__, budget=budget,
                ),
            )
        finally:
            with self._seats:
                del self._running[request_id]
                self._seats.notify_all()

    def _take_seat(self, request_id: int, budget: RequestBudget) -> bool:
        """Wait until ``request_id`` heads the wait line and a seat is
        free, then seat it; ``False`` if a fast shutdown refused it
        first."""
        with self._seats:
            while request_id in self._waiting:
                if (
                    self._waiting[0] == request_id
                    and len(self._running) < self.config.workers
                ):
                    self._waiting.popleft()
                    self._running[request_id] = budget
                    if self._waiting:
                        # The next in line may have a free seat too.
                        self._seats.notify_all()
                    return True
                self._seats.wait()
            return False

    def _refuse(self, request: ServiceRequest, request_id: int,
                outcome: str, budget: RequestBudget) -> ServiceResponse:
        """Answer a request the gate turned away, on arrival or while
        it waited: 429 ``shed`` (wait line full) or 503 ``shutdown``."""
        if outcome == "shed":
            self.metrics.add("requests_shed")
            body = self._envelope(
                request, request_id, outcome="shed",
                error=(
                    f"admission queue full "
                    f"({self.config.queue_capacity} seats)"
                ),
                budget=budget,
            )
            # The HTTP Retry-After header is integer delta-seconds;
            # the body carries the precise sub-second hint.
            body["retry_after"] = self.config.retry_after
            response = ServiceResponse(
                status=STATUS_SHED,
                body=body,
                retry_after=self.config.retry_after,
            )
        else:
            response = ServiceResponse(
                status=STATUS_SHUTTING_DOWN,
                body=self._envelope(
                    request, request_id, outcome="shutdown",
                    error="service is shutting down", budget=budget,
                ),
            )
        self._finish(request, request_id, response, budget=budget)
        return response

    # -- execution -----------------------------------------------------------

    def _handle(self, request: ServiceRequest, request_id: int,
                budget: RequestBudget) -> ServiceResponse:
        """Execute one seated request."""
        try:
            question = self._resolve_question(request)
        except BadRequest as exc:
            return self._reject(request, request_id, str(exc), budget=budget)
        recorder = None
        if request.trace:
            from repro.trace.recorder import TraceRecorder

            recorder = TraceRecorder()
        try:
            result = self.annoda.ask(
                question,
                enrich_links=request.enrich_links,
                use_cache=request.use_cache,
                recorder=recorder,
                budget=budget,
            )
        except QueryError as exc:
            # The question itself cannot be evaluated (say, an 'under'
            # term the ontology does not hold): the client's mistake.
            return self._reject(request, request_id, str(exc), budget=budget)
        except Exception as exc:
            self.metrics.add("requests_failed")
            response = ServiceResponse(
                status=STATUS_ERROR,
                body=self._envelope(
                    request, request_id, outcome="error",
                    error=str(exc) or type(exc).__name__, budget=budget,
                ),
            )
            self._finish(request, request_id, response, budget=budget)
            return response
        degraded = sorted(result.report.degraded)
        outcome = "degraded" if degraded else "ok"
        self.metrics.add(
            "requests_degraded" if degraded else "requests_ok"
        )
        if budget.expired:
            self.metrics.add("deadline_expired")
        # A warm replay of a cached result did no new pipeline work:
        # the metrics fold each result object's stats in only once.
        self.metrics.observe_result(result)
        body = self._envelope(
            request, request_id, outcome=outcome, budget=budget
        )
        body["result"] = {
            "gene_count": len(result),
            "gene_ids": sorted(result.gene_ids()),
            "degraded_sources": degraded,
        }
        body["sources"] = {
            name: {
                "status": report.status,
                "fetches": report.fetches,
                "rows": report.rows,
            }
            for name, report in sorted(result.report.sources.items())
        }
        if recorder is not None and result.trace is not None:
            body["trace"] = trace_shape(result.trace)
        response = ServiceResponse(status=STATUS_OK, body=body)
        self._finish(request, request_id, response, budget=budget)
        return response

    def _reject(self, request: ServiceRequest, request_id: int, error: str,
                budget: RequestBudget) -> ServiceResponse:
        """Answer a client's mistake found once seated: 400
        ``bad-request``, counted in ``requests_rejected``."""
        self.metrics.add("requests_rejected")
        response = ServiceResponse(
            status=STATUS_BAD_REQUEST,
            body=self._envelope(
                request, request_id, outcome="bad-request", error=error,
                budget=budget,
            ),
        )
        self._finish(request, request_id, response, budget=budget)
        return response

    def _resolve_question(self, request: ServiceRequest) -> Any:
        """The question object a request names: a catalog question, or
        its constrained-English text parsed (an unparseable text is
        the client's mistake, answered 400)."""
        if request.question is None:
            try:
                return self.annoda.parser.parse(request.text)
            except QueryError as exc:
                raise BadRequest(
                    f"unparseable question text: {exc}"
                ) from None
        name = request.question
        factory = getattr(QuestionCatalog, name, None)
        known = QuestionCatalog.all_names()
        if factory is None or name not in known:
            raise BadRequest(
                f"unknown catalog question {name!r}; "
                f"known: {sorted(known)}"
            )
        allowed = CATALOG_PARAMS.get(name, ())
        unknown = sorted(set(request.params) - set(allowed))
        if unknown:
            raise BadRequest(
                f"question {name!r} does not accept param(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        try:
            return factory(**request.params)
        except TypeError as exc:
            raise BadRequest(
                f"bad params for question {name!r}: {exc}"
            ) from None

    # -- bookkeeping ---------------------------------------------------------

    def _envelope(self, request: ServiceRequest, request_id: int,
                  outcome: str, budget: RequestBudget,
                  error: Optional[str] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "request_id": request_id,
            "kind": request.kind,
            "question": request.describe(),
            "outcome": outcome,
            "deadline": budget.deadline,
            "deadline_expired": budget.expired,
            "elapsed": budget.elapsed(),
        }
        if error is not None:
            body["error"] = error
        return body

    def _finish(self, request: ServiceRequest, request_id: int,
                response: ServiceResponse, budget: RequestBudget) -> None:
        """Count completion and append the structured log record."""
        self.metrics.add("requests_completed")
        body = response.body
        result = body.get("result") or {}
        self.request_log.append({
            "request_id": request_id,
            "kind": request.kind,
            "question": request.describe(),
            "http_status": response.status,
            "outcome": body.get("outcome"),
            "degraded_sources": result.get("degraded_sources", []),
            "deadline": budget.deadline,
            "deadline_expired": budget.expired,
            "gene_count": result.get("gene_count"),
            "elapsed": budget.elapsed(),
            "error": body.get("error"),
            "trace": body.get("trace"),
        })

    # -- introspection -------------------------------------------------------

    def questions(self) -> Dict[str, Any]:
        return {
            "questions": [
                {"name": name, "params": list(CATALOG_PARAMS.get(name, ()))}
                for name in sorted(QuestionCatalog.all_names())
            ]
        }

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """What ``GET /metrics`` reports: the service and pipeline
        counters, and the federation cache's ``stats()`` per kind."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.annoda.mediator.artifacts.stats()
        return snapshot

    def health(self) -> Dict[str, Any]:
        with self._seats:
            return {
                "status": "shutting-down" if self._closing else "ok",
                "queue_depth": len(self._waiting),
                "queue_capacity": self.config.queue_capacity,
                "workers": self.config.workers,
                "inflight": len(self._running),
            }


class AnnodaHTTPHandler(BaseHTTPRequestHandler):
    """The stdlib HTTP shell over :class:`AnnodaService`."""

    server: "AnnodaHTTPServer"

    #: Request bodies larger than this are rejected outright.
    MAX_BODY_BYTES = 1 << 20

    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log — the service keeps
        its own structured request log."""

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/healthz":
            self._send_json(STATUS_OK, service.health())
        elif path == "/metrics":
            self._send_json(STATUS_OK, service.metrics_snapshot())
        elif path == "/questions":
            self._send_json(STATUS_OK, service.questions())
        elif path == "/requests":
            records = [
                log_record_shape(record)
                for record in service.request_log.records()
            ]
            self._send_json(STATUS_OK, {"requests": records})
        else:
            self._send_json(
                STATUS_NOT_FOUND,
                {"error": f"no such endpoint: {path}"},
            )

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        path = urlparse(self.path).path
        if path != "/query":
            self._send_json(
                STATUS_NOT_FOUND,
                {"error": f"no such endpoint: {path}"},
            )
            return
        try:
            request = ServiceRequest.from_dict(self._read_json())
        except BadRequest as exc:
            self._send_json(STATUS_BAD_REQUEST, {"error": str(exc)})
            return
        response = self.server.service.ask(request)
        self._send_json(
            response.status, response.body, retry_after=response.retry_after
        )

    # -- plumbing ------------------------------------------------------------

    def _read_json(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise BadRequest("Content-Length header required") from None
        if length < 0 or length > self.MAX_BODY_BYTES:
            raise BadRequest(
                f"request body must be 0..{self.MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not JSON: {exc}") from None
        except RecursionError:
            raise BadRequest("request body nests too deeply") from None

    def _send_json(self, status: int, payload: Any,
                   retry_after: Optional[float] = None) -> None:
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        if retry_after is not None:
            # RFC 9110 Retry-After is integer delta-seconds; round the
            # sub-second hint up (the precise float rides in the body).
            self.send_header(
                "Retry-After", str(max(1, math.ceil(retry_after)))
            )
        self.end_headers()
        self.wfile.write(encoded)


class AnnodaHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AnnodaService`.

    Each connection's handler thread runs its query.  Handler threads
    are non-daemon, so ``server_close()`` joins them.
    """

    daemon_threads = False

    def __init__(self, address: Any, service: AnnodaService) -> None:
        super().__init__(address, AnnodaHTTPHandler)
        self.service = service

    def close(self, drain: bool = True) -> None:
        """Stop accepting connections, then stop the service.

        A graceful close joins the handler threads before it stops the
        service, so every accepted connection is answered in full.  A
        fast close stops the service first: joining first would run
        every query in flight to its end before it could be cancelled.
        """
        self.shutdown()
        if drain:
            self.server_close()
            self.service.shutdown(drain=True)
        else:
            self.service.shutdown(drain=False)
            self.server_close()


def serve(annoda: Any, host: str = "127.0.0.1", port: int = 8080,
          config: Optional[ServiceConfig] = None) -> AnnodaHTTPServer:
    """Build the service around ``annoda``; returns the bound HTTP
    server (call ``serve_forever()`` to block, ``close()`` to stop).
    ``port=0`` binds an ephemeral port (tests)."""
    return AnnodaHTTPServer((host, port), AnnodaService(annoda, config=config))
