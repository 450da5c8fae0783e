"""Span recording for the traced benchmark run.

Tracing lives entirely in the benchmark: :meth:`Tracer.install` wraps the
public entry point of each layer with a span recorder, and
:meth:`Tracer.uninstall` puts the originals back.  A span has a name, a
start, an end and a parent; all spans under one root share that root's id
as their request id.  Spans stay in memory until :meth:`Tracer.write`.

The current span is a :class:`contextvars.ContextVar`, so nesting follows
threads and asyncio tasks alike.  Work handed to the service's executor
threads keeps its parent because the traced run also copies the context
into every submitted callable (see ``install`` in ``layers.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: The request root every workload opens around one client request; spans
#: whose root has another name (set-up, final checks) are not aggregated.
ROOT = "request"


@dataclass(eq=False)
class Span:
    name: str
    span_id: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    #: Counts recorded at the boundary (edges before/after a reduction stage).
    data: dict = field(default_factory=dict)

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._links: dict[str, Span] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, next(self._ids), self._current.get(), time.perf_counter())
        token = self._current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    def link(self, key: str, span: Span) -> None:
        """Name ``span`` as the parent for work that :meth:`adopt` finds by ``key``."""
        self._links[key] = span

    def adopt(self, key: str | None) -> None:
        """Re-parent the current span under the span linked to ``key``.

        This is how a server-side span, opened on the server's own thread,
        joins the client request that caused it.
        """
        current = self._current.get()
        parent = self._links.get(key) if key is not None else None
        if current is not None and parent is not None and current.parent is None:
            current.parent = parent

    def clear(self) -> None:
        self.spans.clear()

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by ``make(original)``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            if inspect.isclass(owner) and attr not in vars(owner):
                raise AttributeError(f"{owner.__name__} does not define {attr!r} itself")
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(span, args, result)`` may attach boundary counts to the span.
        """
        tracer = self

        def make(original):
            if inspect.iscoroutinefunction(original):
                @functools.wraps(original)
                async def traced_async(*args, **kwargs):
                    with tracer.span(name) as span:
                        result = await original(*args, **kwargs)
                        if after is not None:
                            after(span, args, result)
                    return result

                return traced_async

            @functools.wraps(original)
            def traced(*args, **kwargs):
                with tracer.span(name) as span:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(span, args, result)
                return result

            return traced

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Aggregation and output
    # ------------------------------------------------------------------ #
    def request_spans(self) -> list[Span]:
        """Finished spans that belong to a benchmark request."""
        return [span for span in self.spans if span.root().name == ROOT]

    def write(self, path) -> None:
        """Write every finished span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "id": span.span_id,
                    "parent": None if span.parent is None else span.parent.span_id,
                    "request": span.root().span_id,
                    "start": span.start,
                    "end": span.end,
                    **span.data,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus what its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent.span_id].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children[span.span_id], key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        totals[span.name] += (span.end - span.start) - covered
    return totals
