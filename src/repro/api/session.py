"""The session layer: one prepared graph, many queries.

A :class:`FairCliqueSession` is the long-lived front door of the query API.
Where :func:`repro.api.solve` rebuilds shared artifacts per call, a session
*prepares* the graph once and keeps everything reusable warm across queries:

* the compiled bitset kernel (memoized on the graph via ``compile()``);
* the reduction-pipeline artifacts, keyed by ``(k, stages)`` — a repeated
  k × delta sweep pays for each reduction exactly once per session, with
  hit/miss counters exposed through :meth:`FairCliqueSession.cache_info`;
* an optional **persistent worker pool** for batches: the graph ships to the
  pool workers once, and every :meth:`solve_many` on the session reuses the
  pool *and* the workers' own memoized artifacts.

On top of the prepared graph the session answers every task shape:

``session.solve(query)``
    One report — ``task="maximum"`` (an engine solve), ``"enumerate"``
    (every maximal fair clique), or ``"top_k"`` (the ``count`` largest).
``session.enumerate(query)``
    The lazy face of the enumeration task: a generator of maximal fair
    cliques, yielded as they are discovered.
``session.stream(query)``
    An iterator of strictly-improving :class:`Incumbent` events while the
    exact search runs — built on the solver's ``on_improve`` hook serially,
    and on the shared incumbent channel across parallel shards — ending with
    a ``final`` event carrying the full report.
``session.explain(query)``
    The resolved :class:`QueryPlan` (engine, model, reduction stages, bound
    stack, shard plan, cache state) without solving anything.

The graph is *pinned*: the session records the graph's mutation version at
construction and refuses queries after a mutation, because its cached
artifacts (and any pool workers) describe the pre-mutation graph.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.api.batch import (
    BatchExecutor,
    SolveContext,
    _check_executor,
    _dispatch_query,
    _solve_parallel,
    _validated_queries,
)
from repro.api.query import FairCliqueQuery
from repro.api.registry import EngineRegistry, default_registry
from repro.api.report import SolveReport
from repro.api.tasks import iter_fair_cliques, validate_task
from repro.exceptions import InvalidParameterError, UnsupportedQueryError
from repro.graph.attributed_graph import AttributedGraph


# --------------------------------------------------------------------------- #
# Event / plan schemas
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Incumbent:
    """One improvement event of a streamed solve.

    Attributes
    ----------
    size:
        Size of the best fair clique known when the event fired.  Strictly
        increasing across the events of one stream.
    clique:
        The clique itself when the improvement happened in-process (serial
        search, heuristic seed).  ``None`` for improvements that arrived as
        a bare size over the parallel incumbent channel — the vertices stay
        in the worker until its shard returns; the ``final`` event always
        carries them.
    seconds:
        Wall-clock since the stream started.
    final:
        True for the terminating event, whose ``report`` is exactly what
        :meth:`FairCliqueSession.solve` would have returned.
    report:
        The finished :class:`~repro.api.report.SolveReport` (final event
        only).
    """

    size: int
    clique: frozenset | None
    seconds: float
    final: bool = False
    report: SolveReport | None = None

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #
    def to_wire(self) -> dict:
        """Lossless plain-data dict that :meth:`from_wire` rebuilds exactly."""
        return {
            "size": self.size,
            "clique": None if self.clique is None else sorted(self.clique, key=str),
            "seconds": self.seconds,
            "final": self.final,
            "report": None if self.report is None else self.report.to_wire(),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "Incumbent":
        """Rebuild an event from :meth:`to_wire` output."""
        clique = payload.get("clique")
        report = payload.get("report")
        return cls(
            size=payload["size"],
            clique=None if clique is None else frozenset(clique),
            seconds=payload.get("seconds", 0.0),
            final=payload.get("final", False),
            report=None if report is None else SolveReport.from_wire(report),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON string form of :meth:`to_wire`."""
        import json

        return json.dumps(self.to_wire(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Incumbent":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_wire(json.loads(text))


@dataclass(frozen=True)
class QueryPlan:
    """What a query *would* do — resolved without solving.

    Produced by :meth:`FairCliqueSession.explain`.  ``reduction_cached`` and
    ``kernel_ready`` report the session's cache state, so a warm session
    shows where repeated queries stop paying; ``shard_plan`` is the parallel
    executor's planning telemetry when it can be computed from cached
    artifacts (it requires the reduced kernel, which ``explain`` will not
    build from scratch).
    """

    query: FairCliqueQuery
    model: str
    engine: str
    task: str
    algorithm: str
    admits: bool
    reduction_stages: tuple[str, ...]
    bound_stack: tuple[str, ...] | None
    bound_stack_substituted: dict | None
    workers: int
    reduction_cached: bool
    kernel_ready: bool
    shard_plan: dict | None
    notes: tuple[str, ...] = ()
    #: Provenance of the graph's current kernel snapshot: ``"compiled"``
    #: (from scratch), ``"patched"`` (delta-spliced from a previous kernel),
    #: or ``None`` when nothing is compiled yet.
    kernel_origin: str | None = None
    #: Number of mutation batches folded into the kernel by patching
    #: (0 for a from-scratch compile).
    kernel_deltas: int = 0
    #: Provenance of the cached reduction this query would reuse: ``"cold"``
    #: for a from-scratch pipeline run, ``"reused"``/``"partial"``/``"full"``
    #: for artifacts carried across a ``session.refresh()`` (how much was
    #: recomputed), ``None`` when nothing is cached.
    reduction_origin: str | None = None

    def as_dict(self) -> dict:
        """Flat plain-data view for JSON/table reporting."""
        return {
            "label": self.query.label(),
            "model": self.model,
            "engine": self.engine,
            "task": self.task,
            "algorithm": self.algorithm,
            "admits": self.admits,
            "reduction_stages": list(self.reduction_stages),
            "bound_stack": None if self.bound_stack is None else list(self.bound_stack),
            "bound_stack_substituted": self.bound_stack_substituted,
            "kernel_origin": self.kernel_origin,
            "kernel_deltas": self.kernel_deltas,
            "workers": self.workers,
            "reduction_cached": self.reduction_cached,
            "reduction_origin": self.reduction_origin,
            "kernel_ready": self.kernel_ready,
            "shard_plan": self.shard_plan,
            "notes": list(self.notes),
        }

    def to_wire(self) -> dict:
        """Lossless plain-data dict that :meth:`from_wire` rebuilds exactly.

        :meth:`as_dict` flattens the query into its label for tables; the
        wire form nests the full query so the plan round-trips.
        """
        payload = self.as_dict()
        del payload["label"]
        payload["query"] = self.query.to_wire()
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryPlan":
        """Rebuild a plan from :meth:`to_wire` output.

        Keys this plan does not carry, such as the kernel storage name that
        older servers sent, are ignored.
        """
        substituted = payload.get("bound_stack_substituted")
        return cls(
            query=FairCliqueQuery.from_wire(payload["query"]),
            model=payload["model"],
            engine=payload["engine"],
            task=payload["task"],
            algorithm=payload["algorithm"],
            admits=payload["admits"],
            reduction_stages=tuple(payload.get("reduction_stages") or ()),
            bound_stack=(
                None if payload.get("bound_stack") is None
                else tuple(payload["bound_stack"])
            ),
            bound_stack_substituted=(
                None if substituted is None else dict(substituted)
            ),
            kernel_origin=payload.get("kernel_origin"),
            kernel_deltas=payload.get("kernel_deltas", 0),
            workers=payload["workers"],
            reduction_cached=payload.get("reduction_cached", False),
            reduction_origin=payload.get("reduction_origin"),
            kernel_ready=payload.get("kernel_ready", False),
            shard_plan=(
                None if payload.get("shard_plan") is None
                else dict(payload["shard_plan"])
            ),
            notes=tuple(payload.get("notes") or ()),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON string form of :meth:`to_wire`."""
        import json

        return json.dumps(self.to_wire(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryPlan":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_wire(json.loads(text))

    def summary(self) -> str:
        """Multi-line human-readable plan (what ``repro-fairclique explain`` prints)."""
        lines = [
            f"query      {self.query.label()}",
            f"task       {self.task}",
            f"engine     {self.engine}  ->  {self.algorithm}",
            f"model      {self.model} (admitted on this graph: {self.admits})",
            f"reduction  {' -> '.join(self.reduction_stages) if self.reduction_stages else '(none)'}"
            + (
                "  [cached"
                + (f": {self.reduction_origin}" if self.reduction_origin else "")
                + "]"
                if self.reduction_cached
                else ""
            ),
            f"bounds     {' + '.join(self.bound_stack) if self.bound_stack else '(none)'}",
            "kernel     bitset/CSR"
            + (
                "  [compiled]"
                if self.kernel_ready and self.kernel_origin != "patched"
                else (
                    f"  [patched +{self.kernel_deltas} delta(s)]"
                    if self.kernel_ready
                    else ""
                )
            ),
            f"workers    {self.workers}",
        ]
        if self.bound_stack_substituted is not None:
            requested = "+".join(self.bound_stack_substituted["requested"])
            lines.append(f"           (substituted for requested {requested})")
        if self.shard_plan is not None:
            lines.append(
                "shards     "
                + ", ".join(f"{key}={value}" for key, value in self.shard_plan.items())
            )
        for note in self.notes:
            lines.append(f"note       {note}")
        return "\n".join(lines)


class _StreamView(SolveContext):
    """A context view for one streamed solve: shared caches, private hook.

    Shares the session context's graph and memo dicts *by reference* (so the
    streamed query still hits — and warms — the session's artifacts) while
    carrying its own ``incumbent_hook``, leaving the session context clean
    for queries running concurrently with the stream.
    """

    def __init__(self, base: SolveContext, hook=None, *,
                 stop_event=None, deadline=None, checkpoint=None) -> None:
        # Deliberately no super().__init__: every attribute aliases the base
        # (including the cache lock, which is what makes a query issued
        # while a stream's background solve is in flight safe).
        self.graph = base.graph
        self._reductions = base._reductions
        self._reduction_origin = base._reduction_origin
        self._domain = base._domain
        self._cache_lock = base._cache_lock
        self._kernel_lock = base._kernel_lock
        self.telemetry = base.telemetry
        self.incumbent_hook = hook
        # Per-request resilience plumbing: the consumer-disconnect stop
        # signal, the caller-owned Deadline, and the durable checkpoint
        # sink all belong to *one* solve, so they live on the view, never
        # on the shared session context.
        self.stop_event = stop_event
        self.deadline = deadline
        self.checkpoint = checkpoint


# --------------------------------------------------------------------------- #
# The session
# --------------------------------------------------------------------------- #
class FairCliqueSession:
    """A prepared graph plus everything reusable across its queries.

    Parameters
    ----------
    graph:
        The graph to prepare.  Its mutation version is pinned: mutating the
        graph after opening the session invalidates it (queries raise).
    registry:
        Engine registry to dispatch through (default: the global one).
        Custom registries are process-local, so they exclude the pooled
        ``solve_many`` path.
    max_workers:
        Default pool size for :meth:`solve_many` batches (``None`` = solve
        batches in-process unless a call says otherwise).

    Sessions are context managers; :meth:`close` shuts the persistent pool
    down.  A closed session refuses further queries but its reports remain
    valid.  One session is meant to be driven from one thread at a time
    (``stream()`` runs the solve on a background thread internally).
    """

    def __init__(
        self,
        graph: AttributedGraph,
        *,
        registry: EngineRegistry | None = None,
        max_workers: int | None = None,
        warm_start: bool = True,
    ) -> None:
        self.graph = graph
        self.graph_version = graph.version
        self._registry = registry or default_registry
        self._custom_registry = registry is not None
        self._default_max_workers = max_workers
        self.context = SolveContext(graph)
        #: Warm-start exact maximum solves with the last clique this session
        #: found for the same ``(model, k, delta)`` — after :meth:`refresh`,
        #: a still-valid previous optimum becomes the initial incumbent, so
        #: the search only has to prove optimality (or beat it).  Disable for
        #: strictly reproducible search counters across sessions.
        self.warm_start = warm_start
        #: ``(model, k, delta) -> frozenset`` — last exact maximum clique per
        #: query family; validity is re-checked against the *current* graph
        #: before every use, so stale entries are harmless.
        self._warm: dict[tuple, frozenset] = {}
        #: Lifetime counters of the incremental machinery (see refresh()).
        self._refresh_stats: dict = {
            "refreshes": 0,
            "refreshes_cold": 0,
            "deltas_applied": 0,
            "ops_applied": 0,
            "reductions_reused": 0,
            "reductions_repeeled": 0,
            "reductions_recomputed": 0,
            "warm_start_hits": 0,
        }
        self._executor: BatchExecutor | None = None
        #: Guards executor creation/teardown: a service tier drives one
        #: session from many worker threads, and two racing ``solve_many``
        #: calls must share one pool instead of leaking a second.
        self._lifecycle_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the persistent worker pool down and refuse further queries.

        Idempotent and thread-safe: a second (or concurrent) ``close`` is a
        no-op, which is what a registry evicting a session under load needs.
        """
        with self._lifecycle_lock:
            if self._executor is not None:
                self._executor.close()
                self._executor = None
            self._closed = True

    def __enter__(self) -> "FairCliqueSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("this FairCliqueSession is closed")
        if self.graph.version != self.graph_version:
            raise InvalidParameterError(
                "the session's prepared graph was mutated; its cached "
                "artifacts (and any pool workers) describe the pre-mutation "
                "graph — call session.refresh() to carry them forward, or "
                "open a new FairCliqueSession"
            )

    # ------------------------------------------------------------------ #
    # Incremental refresh
    # ------------------------------------------------------------------ #
    def refresh(self) -> dict:
        """Carry the session's cached artifacts across a graph mutation.

        Instead of discarding a mutated graph's session (the cold path:
        ``close()`` + reopen), ``refresh()`` consumes the graph's recorded
        :class:`~repro.incremental.GraphDelta` chain and goes *warm*:

        * the compiled kernel is **patched** for the delta (or recompiled
          when the delta footprint is too large — ``graph.compile()`` owns
          that heuristic);
        * every memoized reduction artifact is re-derived component-scoped —
          only delta-touched components are re-peeled, untouched components
          keep their old survivors verbatim;
        * the persistent worker pool is shut down (its workers hold the
          pre-mutation snapshot) and will be rebuilt lazily on the next
          pooled batch;
        * previously found cliques are kept as warm-start incumbents,
          re-validated against the mutated graph at solve time.

        When the graph's delta journal no longer covers the span (history
        dropped), the session falls back to a cold rebuild of its context —
        equivalent to a fresh session, but in place.  Either way the session
        is re-pinned to the current graph version and usable again.

        Returns a plain-data report: ``mode`` (``"noop"`` | ``"warm"`` |
        ``"cold"``), the delta op histogram, kernel provenance, and the
        per-reduction refresh modes.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise InvalidParameterError("this FairCliqueSession is closed")
            if self._executor is not None and self.graph.version != self.graph_version:
                # The pool workers hold the pre-mutation graph snapshot.
                self._executor.close()
                self._executor = None
        delta = self.graph.delta_since(self.graph_version)
        if delta is not None and delta.is_empty:
            return {"mode": "noop", "version": self.graph_version}
        stats = self._refresh_stats
        stats["refreshes"] += 1
        if delta is None:
            # Journal history dropped: nothing to replay, rebuild in place.
            stats["refreshes_cold"] += 1
            self.context = SolveContext(self.graph)
            self.graph_version = self.graph.version
            return {"mode": "cold", "version": self.graph_version}
        stats["deltas_applied"] += delta.batches
        stats["ops_applied"] += len(delta.ops)
        # Patch (or recompile — graph.compile() applies the footprint
        # heuristic) the kernel snapshot before touching the reductions, so
        # the component discovery the refresh needs rides the patched kernel.
        if self.graph.num_vertices:
            self.context.kernel()
        kernel_provenance = self.graph.kernel_provenance()
        modes = self.context.refresh(delta)
        stats["reductions_reused"] += modes.get("reused", 0)
        stats["reductions_repeeled"] += modes.get("partial", 0)
        stats["reductions_recomputed"] += modes.get("full", 0)
        self.graph_version = self.graph.version
        return {
            "mode": "warm",
            "version": self.graph_version,
            "delta": delta.counts(),
            "ops": len(delta.ops),
            "batches": delta.batches,
            "kernel": kernel_provenance,
            "reductions": modes,
        }

    def _make_query(self, query, fields) -> FairCliqueQuery:
        if query is None:
            return FairCliqueQuery(**fields)
        if fields:
            raise InvalidParameterError(
                "pass either a FairCliqueQuery or query fields as keywords, not both"
            )
        return query

    def cache_info(self) -> dict:
        """Plain-data snapshot of the session's artifact reuse.

        ``reductions`` is the number of distinct ``(k, stages)`` pipeline
        runs held; ``reduction_hits``/``reduction_misses`` count how queries
        found them; ``pool_workers`` is the persistent executor's size (0
        when none is running).  ``kernel_compiles``/``kernel_patches`` split
        the graph's kernel builds into from-scratch compiles and delta
        patches, and the ``refresh_*`` keys report the session's incremental
        lifecycle (see :meth:`refresh`).
        """
        kernel_stats = self.graph.kernel_stats()
        info = {
            "reductions": self.context.reduction_cache_size,
            "reduction_hits": self.context.telemetry["reduction_hits"],
            "reduction_misses": self.context.telemetry["reduction_misses"],
            "pool_workers": 0 if self._executor is None else self._executor.max_workers,
            "kernel_compiles": kernel_stats["compiled"],
            "kernel_patches": kernel_stats["patched"],
        }
        info.update(self._refresh_stats)
        return info

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, query: FairCliqueQuery | None = None, *,
              deadline=None, checkpoint=None, **fields) -> SolveReport:
        """Answer one query against the prepared graph (any task shape).

        ``deadline`` optionally imposes a caller-owned
        :class:`~repro.resilience.Deadline` on this one solve (the service
        passes its request budget, queue wait already spent); it combines
        with the query's own ``time_limit`` by earliest-expiry-wins.
        ``checkpoint`` optionally attaches a durable checkpoint sink (a
        :class:`repro.durability.CheckpointHandle`) that a parallel exact
        solve persists its progress to and resumes from — the service's
        warm-restart path for long solves.
        """
        self._check_open()
        query = self._make_query(query, fields)
        validate_task(query)
        context = self.context
        warm = self._warm_incumbent(query)
        if (
            (deadline is not None and deadline.bounded)
            or checkpoint is not None
            or warm is not None
        ):
            context = _StreamView(context, context.incumbent_hook,
                                  deadline=deadline, checkpoint=checkpoint)
        if warm is not None:
            # Rides a view, never the shared session context: the incumbent
            # belongs to this one solve.
            context.warm_incumbent = warm
        report = _dispatch_query(self.graph, query, context, self._registry)
        self._remember_clique(query, report)
        return report

    def _warm_incumbent(self, query: FairCliqueQuery) -> frozenset | None:
        """A previously-found clique that is still a valid incumbent, or ``None``.

        Only exact maximum solves warm-start, and only when the remembered
        clique for ``(model, k, delta)`` verifies as a fair clique of the
        *current* graph — any valid fair clique is a sound lower bound, so
        the search keeps its exactness and merely starts ahead.
        """
        if not self.warm_start or query.task != "maximum" or query.engine != "exact":
            return None
        clique = self._warm.get((query.model, query.k, query.delta))
        if not clique:
            return None
        graph = self.graph
        if not all(graph.has_vertex(v) for v in clique):
            return None
        from repro.models import make_model

        model = make_model(query.model, query.k, query.delta, graph)
        if not model.admits(graph) or not model.verify(graph, clique):
            return None
        self._refresh_stats["warm_start_hits"] += 1
        return clique

    def _remember_clique(self, query: FairCliqueQuery, report: SolveReport) -> None:
        """Record an exact maximum optimum for future warm starts."""
        if query.task != "maximum" or query.engine != "exact":
            return
        if report.clique and report.optimal:
            self._warm[(query.model, query.k, query.delta)] = report.clique

    def solve_many(
        self,
        queries: Iterable[FairCliqueQuery],
        *,
        max_workers: int | None = None,
    ) -> list[SolveReport]:
        """Answer a batch of queries, in input order.

        ``max_workers > 1`` solves the batch on the session's persistent
        process pool, creating it on first use; subsequent batches reuse the
        pool and the workers' memoized artifacts.
        """
        self._check_open()
        query_list = _validated_queries(queries, self._registry)
        workers = max_workers if max_workers is not None else self._default_max_workers
        if workers is not None and workers > 1 and len(query_list) > 1:
            if self._custom_registry:
                raise InvalidParameterError(
                    "custom registries cannot be shipped to worker processes; "
                    "use the default registry or max_workers=1"
                )
            executor = self._executor_for(workers)
            return _solve_parallel(self.graph, query_list, workers, executor)
        return [
            _dispatch_query(self.graph, query, self.context, self._registry)
            for query in query_list
        ]

    def _executor_for(self, max_workers: int) -> BatchExecutor:
        """The persistent pool, (re)built when the requested size changes."""
        with self._lifecycle_lock:
            if self._executor is not None and self._executor.max_workers != max_workers:
                self._executor.close()
                self._executor = None
            if self._executor is None:
                self._executor = BatchExecutor(self.graph, max_workers)
            executor = self._executor
        _check_executor(self.graph, executor)
        return executor

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def enumerate(
        self, query: FairCliqueQuery | None = None, **fields
    ) -> Iterator[frozenset]:
        """Lazily yield every maximal fair clique matching the query.

        The generator surface of ``task="enumerate"``: cliques are yielded
        as the (kernel-native, or ``engine="brute_force"`` oracle) traversal
        discovers them, in unspecified order — take what you need and stop.
        A plain query (``task="maximum"``) is adopted as the enumeration
        question; use ``solve`` with ``task="enumerate"`` for the eager,
        deterministically sorted report instead.
        """
        self._check_open()
        query = self._make_query(query, fields)
        if query.task == "maximum":
            query = query.with_task("enumerate")
        elif query.task != "enumerate":
            raise InvalidParameterError(
                f"session.enumerate answers task='enumerate', not {query.task!r}; "
                "use session.solve for top_k"
            )
        self._registry.resolve(query)
        validate_task(query)
        return iter_fair_cliques(self.graph, query, self.context)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def stream(
        self, query: FairCliqueQuery | None = None, *,
        stop_event: "threading.Event | None" = None, **fields
    ) -> Iterator[Incumbent]:
        """Solve while yielding strictly-improving :class:`Incumbent` events.

        The solve runs on a background thread; this generator yields an
        event per improvement — the heuristic seed, every better clique the
        serial search records, and (``workers > 1``) every size increase on
        the shared incumbent channel — then a ``final`` event whose
        ``report`` equals what :meth:`solve` returns for the same query.

        Abandoning the generator (``close()``, or a consumer that went
        away) *stops the background solve*: the generator's cleanup sets
        ``stop_event``, which the solver checks alongside its deadline (a
        ``workers > 1`` solve relays it to every pool worker), so
        an abandoned stream aborts within the budget-check granularity
        instead of running to completion.  ``stop_event`` may be supplied
        by the caller (the service's disconnect signal); pre-setting it
        aborts the solve at its first budget check.  The session stays
        usable afterwards.

        Only the ``exact`` engine publishes incumbents, and only the
        ``maximum`` task has them.
        """
        self._check_open()
        query = self._make_query(query, fields)
        self._registry.resolve(query)
        if query.task != "maximum":
            raise UnsupportedQueryError(
                f"stream() follows the incumbent of a task='maximum' solve; "
                f"task {query.task!r} has no incumbent trajectory "
                "(iterate session.enumerate instead)"
            )
        if query.engine != "exact":
            raise UnsupportedQueryError(
                f"engine {query.engine!r} does not publish incumbents; "
                "stream() requires the 'exact' engine"
            )
        return self._stream_events(
            query, stop_event if stop_event is not None else threading.Event()
        )

    def _stream_events(
        self, query: FairCliqueQuery, stop_event: "threading.Event"
    ) -> Iterator[Incumbent]:
        events: queue.SimpleQueue = queue.SimpleQueue()
        started = time.monotonic()

        def hook(size: int, clique: frozenset | None) -> None:
            events.put(("incumbent", size, clique, time.monotonic() - started))

        view = _StreamView(self.context, hook, stop_event=stop_event)

        def run() -> None:
            try:
                report = _dispatch_query(self.graph, query, view, self._registry)
            except BaseException as error:  # propagate into the consumer
                events.put(("error", error, None, 0.0))
            else:
                events.put(("done", report, None, 0.0))

        solver_thread = threading.Thread(
            target=run, name="fairclique-stream", daemon=True
        )
        solver_thread.start()
        # Monotonicity guard: hooks already fire on strict improvement, but
        # the heuristic seed and multiple per-component searchers make that
        # a per-source property — enforce it globally here.
        best_seen = 0
        try:
            while True:
                kind, payload, clique, seconds = events.get()
                if kind == "incumbent":
                    if payload > best_seen:
                        best_seen = payload
                        yield Incumbent(
                            size=payload, clique=clique, seconds=seconds
                        )
                    continue
                solver_thread.join()
                if kind == "error":
                    raise payload
                report: SolveReport = payload
                yield Incumbent(
                    size=report.size,
                    clique=report.clique,
                    seconds=time.monotonic() - started,
                    final=True,
                    report=report,
                )
                return
        finally:
            # Runs on normal completion (harmless: the solve is done) and —
            # the case that matters — on GeneratorExit when the consumer
            # abandons the stream: the solver sees the event at its next
            # budget check and aborts instead of burning the executor.
            stop_event.set()

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def explain(
        self, query: FairCliqueQuery | None = None, **fields
    ) -> QueryPlan:
        """Resolve a query into its :class:`QueryPlan` without solving.

        Dispatch is validated exactly like :meth:`solve` (unknown engines /
        unsupported pairs / unanswerable tasks raise), the exact engine's
        options are resolved through the same code path the engine runs, and
        the session's caches are *read but never written* — except that
        computing a shard plan may compile the (already reduced) kernel,
        which is preparation the query would pay anyway.
        """
        self._check_open()
        query = self._make_query(query, fields)
        engine = self._registry.resolve(query)
        validate_task(query)
        from repro.models import make_model

        workers = query.workers or 1
        notes: list[str] = []
        provenance = self.graph.kernel_provenance()
        kernel_origin = None if provenance is None else provenance.get("origin")
        kernel_deltas = 0 if provenance is None else provenance.get("deltas", 0)

        if query.task != "maximum":
            model = make_model(query.model, query.k, query.delta, self.graph)
            notes.append(
                "enumeration runs on the unreduced graph: removing a vertex "
                "outside every fair clique could still fake maximality"
            )
            if workers > 1:
                notes.append("workers ignored: the enumeration tasks run serially")
            return QueryPlan(
                query=query,
                model=query.model,
                engine=query.engine,
                task=query.task,
                algorithm=(
                    "FairBK(kernel)" if query.engine == "exact" else "FairBK(oracle)"
                ),
                admits=model.admits(self.graph),
                reduction_stages=(),
                bound_stack=None,
                bound_stack_substituted=None,
                workers=1,
                reduction_cached=False,
                kernel_ready=self.graph.kernel_ready,
                shard_plan=None,
                kernel_origin=kernel_origin,
                kernel_deltas=kernel_deltas,
                notes=tuple(notes),
            )

        if query.engine == "exact":
            from repro.api.engines import _resolve_exact

            model, config, substitution = _resolve_exact(self.graph, query)
            stages = (
                model.reduction_stages(config.reduction_stages)
                if config.use_reduction
                else ()
            )
            stack = model.resolve_bound_stack(config.bound_stack)
            reduction = (
                self.context.cached_reduction(query.k, stages)
                if config.use_reduction
                else None
            )
            reduction_cached = reduction is not None
            search_graph = reduction.graph if reduction is not None else self.graph
            kernel_ready = search_graph.kernel_ready
            shard_plan = None
            if workers > 1:
                if config.use_reduction and not reduction_cached:
                    notes.append(
                        "shard plan unresolved: the reduction for this k is "
                        "not cached yet — run (or warm) the query first"
                    )
                elif search_graph.num_vertices:
                    from repro.parallel.sharding import plan_shards

                    plan = plan_shards(
                        search_graph.compile(),
                        model.bind(model.domain_of(self.graph), config.bound_stack),
                        incumbent_size=0,
                        workers=workers,
                    )
                    shard_plan = plan.summary()
            return QueryPlan(
                query=query,
                model=query.model,
                engine=query.engine,
                task=query.task,
                algorithm=model.algorithm_name(config.algorithm_name),
                admits=model.admits(self.graph),
                reduction_stages=tuple(stages),
                bound_stack=None if stack is None else tuple(stack.names),
                bound_stack_substituted=substitution,
                workers=workers,
                reduction_cached=reduction_cached,
                reduction_origin=(
                    self.context.reduction_origin(query.k, stages)
                    if config.use_reduction and stages
                    else None
                ),
                kernel_ready=kernel_ready,
                shard_plan=shard_plan,
                kernel_origin=kernel_origin,
                kernel_deltas=kernel_deltas,
                notes=tuple(notes),
            )

        # Heuristic / brute-force / custom engines: no reduction, no bounds.
        model = make_model(query.model, query.k, query.delta, self.graph)
        if query.engine == "heuristic":
            algorithm = "GreedyMW" if query.model == "multi_weak" else "HeurRFC"
        elif query.engine == "brute_force":
            algorithm = "BruteForceEnum"
        else:
            algorithm = engine.name
            notes.append("custom engine: no static plan beyond its registration")
        if workers > 1:
            notes.append(f"workers ignored: engine {query.engine!r} runs serially")
        return QueryPlan(
            query=query,
            model=query.model,
            engine=query.engine,
            task=query.task,
            algorithm=algorithm,
            admits=model.admits(self.graph),
            reduction_stages=(),
            bound_stack=None,
            bound_stack_substituted=None,
            workers=1,
            reduction_cached=False,
            kernel_ready=self.graph.kernel_ready,
            shard_plan=None,
            kernel_origin=kernel_origin,
            kernel_deltas=kernel_deltas,
            notes=tuple(notes),
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        info = self.cache_info()
        return (
            f"FairCliqueSession(n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, {state}, "
            f"reductions={info['reductions']}, pool={info['pool_workers']})"
        )
