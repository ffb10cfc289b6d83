"""Request/response types of the ANNODA query service.

A :class:`ServiceRequest` names either a catalog question (by its
:class:`~repro.questions.catalog.QuestionCatalog` method name, with
keyword ``params``) or free constrained-English ``text``; the service
resolves it against the federation and answers with a
:class:`ServiceResponse` whose ``body`` is a plain JSON-ready dict.

The body keeps the *deterministic* answer under ``body["result"]``
(sorted gene ids, sorted degraded sources) strictly separate from the
volatile envelope (request id, elapsed seconds, counters) — a property
test pins concurrent responses byte-identical to serial ones on
exactly that sub-dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

#: HTTP statuses the service answers with.
STATUS_OK = 200
STATUS_BAD_REQUEST = 400
STATUS_NOT_FOUND = 404
STATUS_SHED = 429
STATUS_ERROR = 500
STATUS_SHUTTING_DOWN = 503

#: Catalog questions that take parameters, with the keywords each
#: accepts (everything else must be called bare).
CATALOG_PARAMS: Dict[str, Tuple[str, ...]] = {
    "disease_genes": ("organism",),
    "genes_by_annotation_keyword": ("keyword", "aspect"),
    "genes_under_term": ("go_id",),
}


class BadRequest(ValueError):
    """The client's request was malformed (HTTP 400)."""


@dataclass(frozen=True)
class ServiceRequest:
    """One question posed to the service.

    Exactly one of ``question`` (a catalog question name, with
    ``params``) or ``text`` (constrained English) must be set.
    ``deadline`` is relative seconds the whole request may take —
    queue wait included; ``None`` inherits the service default.
    ``trace`` opts into flight-recording the query (the response and
    the request log then carry the trace shape; traced requests never
    read the answer cache, so tracing is per-request opt-in).
    """

    question: Optional[str] = None
    text: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    deadline: Optional[float] = None
    enrich_links: bool = True
    use_cache: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        if (self.question is None) == (self.text is None):
            raise BadRequest(
                "exactly one of 'question' (catalog name) or 'text' "
                "(constrained English) must be given"
            )
        if self.deadline is not None and not (
            math.isfinite(self.deadline) and self.deadline >= 0
        ):
            raise BadRequest("'deadline' must be a finite number >= 0")
        object.__setattr__(self, "params", dict(self.params))

    @property
    def kind(self) -> str:
        return "catalog" if self.question is not None else "text"

    def describe(self) -> str:
        if self.question is not None:
            if self.params:
                rendered = ", ".join(
                    f"{key}={value!r}"
                    for key, value in sorted(self.params.items())
                )
                return f"{self.question}({rendered})"
            return self.question
        return repr(self.text)

    @classmethod
    def from_dict(cls, payload: Any) -> "ServiceRequest":
        """Validate a decoded JSON body into a request (HTTP 400 on
        any shape error, via :class:`BadRequest`)."""
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        known = {
            "question", "text", "params", "deadline", "enrich_links",
            "use_cache", "trace",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise BadRequest(f"unknown request field(s): {unknown}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise BadRequest("'params' must be a JSON object")
        # Every catalog parameter is a string (CATALOG_PARAMS).
        for name, value in params.items():
            if not isinstance(value, str):
                raise BadRequest(f"param {name!r} must be a string")
        deadline = payload.get("deadline")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
        ):
            raise BadRequest("'deadline' must be a number of seconds")
        try:
            deadline = None if deadline is None else float(deadline)
        except OverflowError:
            raise BadRequest(
                "'deadline' must be a finite number >= 0"
            ) from None
        for flag in ("enrich_links", "use_cache", "trace"):
            if flag in payload and not isinstance(payload[flag], bool):
                raise BadRequest(f"'{flag}' must be a boolean")
        question = payload.get("question")
        text = payload.get("text")
        if question is not None and not isinstance(question, str):
            raise BadRequest("'question' must be a string")
        if text is not None and not isinstance(text, str):
            raise BadRequest("'text' must be a string")
        return cls(
            question=question,
            text=text,
            params=params,
            deadline=deadline,
            enrich_links=payload.get("enrich_links", True),
            use_cache=payload.get("use_cache", True),
            trace=payload.get("trace", False),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """One answered (or shed) request: HTTP status + JSON-ready body.

    ``retry_after`` is set on load-shed (429) responses and becomes
    the ``Retry-After`` header over HTTP.
    """

    status: int
    body: Dict[str, Any]
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def shed(self) -> bool:
        return self.status == STATUS_SHED

    @property
    def outcome(self) -> str:
        """The body's outcome tag (``ok``/``degraded``/``shed``/...)."""
        outcome = self.body.get("outcome")
        return outcome if isinstance(outcome, str) else "unknown"
