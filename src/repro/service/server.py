"""ANNODA as a long-lived query service.

:class:`AnnodaService` is the transport-independent core: admission
control (bounded queue, immediate 429 shedding), a worker pool
executing queries against one shared federation, per-request deadline
budgets, a structured request log and merged service/pipeline metrics.
The HTTP layer (:class:`AnnodaHTTPServer`, stdlib
``ThreadingHTTPServer`` — no new dependencies) is a thin shell over
it, so the whole concurrency surface is testable in-process without
sockets.

Endpoints:

- ``POST /query`` — a :class:`~repro.service.types.ServiceRequest`
  JSON body; answers 200 (full or degraded-partial), 400 (malformed),
  429 + ``Retry-After`` (queue full), 503 (shutting down);
- ``GET /questions`` — the catalog question names and their params;
- ``GET /metrics`` — the service + pipeline counter snapshot, plus
  the federation cache's per-kind hits, misses and entries;
- ``GET /requests`` — recent structured request-log records;
- ``GET /healthz`` — liveness plus queue depth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import urlparse

from repro.questions.catalog import QuestionCatalog
from repro.service.metrics import ServiceMetrics
from repro.service.queue import AdmissionQueue, Ticket
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
from repro.service.workers import WorkerPool
from repro.trace.export import trace_shape
from repro.util.cancel import RequestBudget
from repro.util.errors import QueryError
from repro.util.locks import new_lock


@dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of one :class:`AnnodaService`."""

    #: Seats in the admission queue; a full queue sheds with 429.
    queue_capacity: int = 64
    #: Worker threads executing queries.
    workers: int = 4
    #: Deadline (seconds) applied to requests that don't set one;
    #: ``None`` leaves them unbounded.
    default_deadline: Optional[float] = None
    #: ``Retry-After`` hint (seconds) on shed responses.
    retry_after: float = 0.05
    #: Ring size of the structured request log.
    request_log_size: int = 256


class AnnodaService:
    """Admission-controlled query execution over one federation."""

    def __init__(self, annoda: Any,
                 config: Optional[ServiceConfig] = None) -> None:
        self.annoda = annoda
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.request_log = RequestLog(self.config.request_log_size)
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.pool = WorkerPool(
            self.queue, self._handle, workers=self.config.workers
        )
        self._ids_lock = new_lock("AnnodaService._ids_lock")
        self._next_id = 0
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AnnodaService":
        if not self._started:
            self._started = True
            self.pool.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service.

        ``drain=True`` (graceful) answers everything already admitted
        before the workers exit; ``drain=False`` flushes queued
        requests as 503 and cancels in-flight budgets so workers
        return degraded answers immediately.
        """
        self._stopped = True
        self.pool.shutdown(drain=drain, timeout=timeout)

    def __enter__(self) -> "AnnodaService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(drain=True)

    # -- admission -----------------------------------------------------------

    def submit(self, request: ServiceRequest) -> Ticket:
        """Admit (or immediately shed) one request.

        Always returns a ticket; a shed or shutdown rejection comes
        back already resolved, so ``ticket.result()`` never blocks on
        a request the service declined.  The request's deadline budget
        starts *here* — time spent queued counts against it.
        """
        self.metrics.add("requests_received")
        deadline = request.deadline
        if deadline is None:
            deadline = self.config.default_deadline
        ticket = Ticket(
            request, self._allocate_id(), RequestBudget(deadline=deadline)
        )
        if self.queue.offer(ticket):
            self.metrics.add("requests_admitted")
            self.metrics.observe_queue_depth(len(self.queue))
            return ticket
        if self.queue.closed:
            response = ServiceResponse(
                status=STATUS_SHUTTING_DOWN,
                body=self._envelope(
                    ticket, outcome="shutdown",
                    error="service is shutting down",
                ),
            )
        else:
            self.metrics.add("requests_shed")
            body = self._envelope(
                ticket, outcome="shed",
                error=(
                    f"admission queue full "
                    f"({self.queue.capacity} seats)"
                ),
            )
            # The HTTP Retry-After header is integer delta-seconds;
            # the body carries the precise sub-second hint.
            body["retry_after"] = self.config.retry_after
            response = ServiceResponse(
                status=STATUS_SHED,
                body=body,
                retry_after=self.config.retry_after,
            )
        self._finish(ticket, response)
        ticket.resolve(response)
        return ticket

    def ask(self, request: ServiceRequest,
            timeout: Optional[float] = None) -> ServiceResponse:
        """Submit and wait: the blocking one-call client API."""
        return self.submit(request).result(timeout)

    def _allocate_id(self) -> int:
        with self._ids_lock:
            self._next_id += 1
            return self._next_id

    # -- execution (worker side) ---------------------------------------------

    def _handle(self, ticket: Ticket) -> ServiceResponse:
        """Execute one admitted ticket (runs on a pool worker)."""
        request = ticket.request
        try:
            question = self._resolve_question(request)
        except BadRequest as exc:
            return self._reject(ticket, str(exc))
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
                budget=ticket.budget,
            )
        except QueryError as exc:
            # The question itself cannot be evaluated (say, an 'under'
            # term the ontology does not hold): the client's mistake.
            return self._reject(ticket, str(exc))
        except Exception as exc:
            self.metrics.add("requests_failed")
            response = ServiceResponse(
                status=STATUS_ERROR,
                body=self._envelope(
                    ticket, outcome="error",
                    error=str(exc) or type(exc).__name__,
                ),
            )
            self._finish(ticket, response)
            return response
        degraded = sorted(result.report.degraded)
        outcome = "degraded" if degraded else "ok"
        self.metrics.add(
            "requests_degraded" if degraded else "requests_ok"
        )
        if ticket.budget.expired:
            self.metrics.add("deadline_expired")
        # A warm replay of a cached result did no new pipeline work:
        # the metrics fold each result object's stats in only once.
        self.metrics.observe_result(result)
        body = self._envelope(ticket, outcome=outcome)
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
        self._finish(ticket, response)
        return response

    def _reject(self, ticket: Ticket, error: str) -> ServiceResponse:
        """Answer a client's mistake found by a worker: 400
        ``bad-request``, counted in ``requests_rejected``."""
        self.metrics.add("requests_rejected")
        response = ServiceResponse(
            status=STATUS_BAD_REQUEST,
            body=self._envelope(ticket, outcome="bad-request", error=error),
        )
        self._finish(ticket, response)
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

    def _envelope(self, ticket: Ticket, outcome: str,
                  error: Optional[str] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "request_id": ticket.request_id,
            "kind": ticket.request.kind,
            "question": ticket.request.describe(),
            "outcome": outcome,
            "deadline": ticket.budget.deadline,
            "deadline_expired": ticket.budget.expired,
            "elapsed": ticket.budget.elapsed(),
        }
        if error is not None:
            body["error"] = error
        return body

    def _finish(self, ticket: Ticket, response: ServiceResponse) -> None:
        """Count completion and append the structured log record."""
        self.metrics.add("requests_completed")
        body = response.body
        result = body.get("result") or {}
        self.request_log.append({
            "request_id": ticket.request_id,
            "kind": ticket.request.kind,
            "question": ticket.request.describe(),
            "http_status": response.status,
            "outcome": body.get("outcome"),
            "degraded_sources": result.get("degraded_sources", []),
            "deadline": ticket.budget.deadline,
            "deadline_expired": ticket.budget.expired,
            "gene_count": result.get("gene_count"),
            "elapsed": ticket.budget.elapsed(),
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
        return {
            "status": "shutting-down" if self._stopped else "ok",
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "workers": self.pool.size,
            "inflight": self.pool.inflight(),
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

    Handler threads are non-daemon so ``server_close()`` joins them:
    a request whose connection was accepted is fully answered before
    the service behind it shuts down (every admitted ticket resolves,
    so the join always terminates).
    """

    daemon_threads = False

    def __init__(self, address: Any, service: AnnodaService) -> None:
        super().__init__(address, AnnodaHTTPHandler)
        self.service = service

    def close(self, drain: bool = True) -> None:
        """Stop accepting connections, then stop the service."""
        self.shutdown()
        self.server_close()
        self.service.shutdown(drain=drain)


def serve(annoda: Any, host: str = "127.0.0.1", port: int = 8080,
          config: Optional[ServiceConfig] = None) -> AnnodaHTTPServer:
    """Build and start the service around ``annoda``; returns the
    bound HTTP server (call ``serve_forever()`` to block, ``close()``
    to stop).  ``port=0`` binds an ephemeral port (tests)."""
    service = AnnodaService(annoda, config=config).start()
    return AnnodaHTTPServer((host, port), service)
