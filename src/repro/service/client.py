"""A stdlib HTTP client for the fair-clique service.

:class:`ServiceClient` speaks the service's JSON wire format and gives the
caller back the same objects the in-process API returns —
:class:`~repro.api.report.SolveReport` from :meth:`solve`,
:class:`~repro.api.session.Incumbent` events from :meth:`stream`,
:class:`~repro.api.session.QueryPlan` from :meth:`explain` — so switching
between a local session and a remote service is a one-line change.  Used by
the example client, the ``service-mixed`` benchmark workload, and the CI
smoke test.

One connection per request (the server speaks ``Connection: close``), pure
``http.client`` underneath — no dependencies.

Transient failures are retried: connection resets/refusals and 429/503
responses back off with bounded jittered exponential delays (honouring the
server's ``Retry-After`` hint when it sends one) before giving up.  Every
query the service exposes is a pure function of (graph, query), so replaying
a request is always safe.  Pass ``retries=0`` to opt out.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from http.client import HTTPConnection
from urllib.parse import urlsplit

from repro.api.query import FairCliqueQuery
from repro.api.report import SolveReport
from repro.api.session import Incumbent, QueryPlan
from repro.graph.attributed_graph import AttributedGraph
from repro.resilience.retry import RetryPolicy
from repro.service.wire import graph_to_wire

#: Connection-level failures worth replaying: the server was restarting,
#: the listener's backlog was full, or the connection died mid-exchange.
_RETRYABLE_ERRORS = (ConnectionError, TimeoutError)

#: HTTP statuses that explicitly invite a retry (backpressure, open breaker).
_RETRYABLE_STATUSES = (429, 503)


class ServiceError(Exception):
    """A non-2xx response from the service, carrying its error envelope."""

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header (seconds), when the server sent one.
        self.retry_after = retry_after


def _parse_retry_after(value) -> float | None:
    """Seconds until retry from a ``Retry-After`` header, or ``None``.

    RFC 9110 §10.2.3 allows two forms: delta-seconds (``"120"``) and an
    HTTP-date (``"Fri, 31 Dec 1999 23:59:59 GMT"``); both are accepted, a
    date already in the past clamps to ``0.0``, and any unparseable value
    returns ``None`` so the retry loop falls back to its backoff schedule
    instead of trusting garbage.
    """
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except (TypeError, ValueError):
        pass
    try:
        when = parsedate_to_datetime(str(value))
    except (TypeError, ValueError):
        return None
    if when is None:  # pre-3.10 parsedate returned None on garbage
        return None
    if when.tzinfo is None:
        # RFC 5322 dates without a usable zone are interpreted as GMT,
        # which is what HTTP servers emit anyway.
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class ServiceClient:
    """A synchronous client bound to one service base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        *,
        retries: int = 2,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// service URLs are supported, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self.retry_policy = retry_policy or RetryPolicy(retries=retries)
        self._rng = self.retry_policy.make_rng()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _backoff(self, attempt: int, error: Exception) -> bool:
        """Sleep before retry ``attempt``; False once the budget is spent."""
        if attempt >= self.retry_policy.retries:
            return False
        retry_after = None
        if isinstance(error, ServiceError):
            if error.status not in _RETRYABLE_STATUSES:
                return False
            retry_after = error.retry_after
        time.sleep(self.retry_policy.delay(attempt, self._rng, retry_after))
        return True

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except (ServiceError, *_RETRYABLE_ERRORS) as error:
                if not self._backoff(attempt, error):
                    raise
                attempt += 1

    def _request_once(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        connection = self._connect()
        try:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            headers = {} if body is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded = json.loads(raw) if raw else {}
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    decoded.get("error", raw.decode("utf-8", "replace")),
                    retry_after=_parse_retry_after(
                        response.getheader("Retry-After")
                    ),
                )
            return decoded
        finally:
            connection.close()

    def _request_lines(self, path: str, payload: dict) -> Iterator[dict]:
        """POST and yield the NDJSON lines of a streaming response lazily.

        Retries apply only *before the first line is delivered* — once the
        consumer has seen events, replaying the request from scratch would
        deliver duplicates, so a mid-stream failure propagates instead.
        """
        attempt = 0
        while True:
            started = False
            try:
                for line in self._request_lines_once(path, payload):
                    started = True
                    yield line
                return
            except (ServiceError, *_RETRYABLE_ERRORS) as error:
                if started or not self._backoff(attempt, error):
                    raise
                attempt += 1

    def _request_lines_once(self, path: str, payload: dict) -> Iterator[dict]:
        connection = self._connect()
        try:
            connection.request(
                "POST", path, body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw).get("error", "")
                except json.JSONDecodeError:
                    message = raw.decode("utf-8", "replace")
                raise ServiceError(
                    response.status, message,
                    retry_after=_parse_retry_after(
                        response.getheader("Retry-After")
                    ),
                )
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    @staticmethod
    def _envelope(graph_id: str, query: FairCliqueQuery,
                  tier: str | None = None, **extra) -> dict:
        payload: dict = {"graph": graph_id, "query": query.to_wire(), **extra}
        if tier is not None:
            payload["tier"] = tier
        return payload

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def graphs(self) -> list[str]:
        return self._request("GET", "/graphs")["graphs"]

    def graph_info(self, graph_id: str) -> dict:
        return self._request("GET", f"/graphs/{graph_id}")

    def upload_graph(self, graph_id: str, graph: AttributedGraph) -> dict:
        """Serve ``graph`` under ``graph_id`` on the remote service."""
        return self._request("POST", f"/graphs/{graph_id}", graph_to_wire(graph))

    def mutate_graph(self, graph_id: str, ops: list) -> dict:
        """Apply one mutation batch to a served graph (one version bump).

        ``ops`` use the delta op alphabet: ``("add_vertex", v, attr[, label])``,
        ``("remove_vertex", v)``, ``("add_edge", u, v)``,
        ``("remove_edge", u, v)``.  The batch is all-or-nothing server-side.
        Unlike queries, a mutation is not idempotent under the client's
        replay-on-disconnect policy: if the connection dies after the server
        applied the batch, the retry's dry-run rejects the already-applied
        removals with 422 — callers seeing that should reconcile against
        :meth:`graph_info` rather than assume failure.
        """
        return self._request(
            "POST", f"/graphs/{graph_id}/mutations",
            {"mutations": [list(op) for op in ops]},
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def solve(self, graph_id: str, query: FairCliqueQuery,
              tier: str | None = None, *, allow_degraded: bool = False) -> SolveReport:
        """Remote ``session.solve``; the report round-trips the wire format."""
        return SolveReport.from_wire(
            self.solve_raw(graph_id, query, tier, allow_degraded=allow_degraded)
            ["report"]
        )

    def solve_raw(self, graph_id: str, query: FairCliqueQuery,
                  tier: str | None = None, *, allow_degraded: bool = False) -> dict:
        """Like :meth:`solve` but returns the full response envelope
        (``cached``, ``quota_clamped``, ``tier``, ``degraded``, raw
        ``report``).  ``allow_degraded=True`` opts into a heuristic answer
        (flagged ``degraded`` in the envelope) when the exact engine is
        crashing, instead of a 500."""
        extra = {"allow_degraded": True} if allow_degraded else {}
        return self._request(
            "POST", "/solve", self._envelope(graph_id, query, tier, **extra)
        )

    def explain(self, graph_id: str, query: FairCliqueQuery,
                tier: str | None = None) -> QueryPlan:
        """Remote ``session.explain``."""
        payload = self._request(
            "POST", "/explain", self._envelope(graph_id, query, tier)
        )
        return QueryPlan.from_wire(payload["plan"])

    def stream(self, graph_id: str, query: FairCliqueQuery,
               tier: str | None = None) -> Iterator[Incumbent]:
        """Remote ``session.stream``: lazy NDJSON incumbents, final last."""
        for line in self._request_lines(
            "/stream", self._envelope(graph_id, query, tier)
        ):
            yield Incumbent.from_wire(line)

    def enumerate(self, graph_id: str, query: FairCliqueQuery,
                  limit: int | None = None) -> Iterator[frozenset]:
        """Remote ``session.enumerate``: lazy maximal fair cliques."""
        extra = {} if limit is None else {"limit": limit}
        for line in self._request_lines(
            "/enumerate", self._envelope(graph_id, query, **extra)
        ):
            if line.get("done"):
                return
            yield frozenset(line["clique"])
