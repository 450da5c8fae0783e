"""The batch machinery behind sessions, ``solve``, and ``solve_many``.

The long-lived surface is :class:`~repro.api.session.FairCliqueSession`; the
module-level :func:`solve`/:func:`solve_many` are thin wrappers over an
ephemeral session, kept as the one-shot front door.  What lives here is the
machinery both share:

* **Shared reduction artifacts** — the Algorithm 2 reduction pipeline depends
  only on ``(graph, k, stages)``, never on ``delta`` or the model, so a
  :class:`SolveContext` memoizes one pipeline run per distinct ``k`` and every
  query reuses it.  A delta sweep then pays for the reduction exactly once,
  and a session keeps the artifacts warm across *calls*.
* **Process parallelism for batches** — with ``max_workers > 1`` the queries
  are partitioned by ``k`` (keeping the reduction sharing intact inside each
  worker) and solved in a ``concurrent.futures`` process pool.  The graph is
  shipped to each worker exactly once, through the pool *initializer* — task
  submissions carry only the queries — and one :class:`BatchExecutor` (pool +
  shipped graph + per-worker context) serves every chunk.  Sessions own the
  persistent executor.

Dispatch is validated *before* any work starts: an unsupported
(model, engine) pair — or an enumeration task on an engine without an
enumeration implementation — anywhere in the batch raises
:class:`~repro.exceptions.UnsupportedQueryError` immediately.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable, Sequence
import time

from repro.api.query import FairCliqueQuery
from repro.api.registry import EngineRegistry, default_registry
from repro.api.report import SolveReport
from repro.api.tasks import run_task, validate_task
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.reduction.pipeline import DEFAULT_STAGES, PipelineResult, ReductionPipeline

import repro.api.engines  # noqa: F401  (imported for the side effect: built-in engines register)


class SolveContext:
    """Per-graph scratch space shared by the engines of one session/batch.

    It memoizes reduction-pipeline runs keyed by ``(k, stages)`` and counts
    hits/misses in :attr:`telemetry`; compiled kernels ride along via
    :meth:`kernel` (memoized on the graphs themselves).  ``incumbent_hook``
    is the streaming tap: when a session streams a query, engines attach it
    to their solver so every improving incumbent is published.  Every engine
    receives one as its ``context`` argument; a
    :class:`~repro.api.session.FairCliqueSession` owns the context of its
    graph.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self.graph = graph
        self._reductions: dict[tuple, tuple[PipelineResult, float]] = {}
        #: Attribute domain of the graph at context creation — every cached
        #: reduction was computed against it (the session pins the graph
        #: version), and :meth:`refresh` needs the *pre-delta* domain to
        #: decide how much of each cached pipeline run survives a mutation.
        self._domain: tuple = graph.attribute_values()
        #: Per-key provenance of the cached reductions: ``"cold"`` for a
        #: from-scratch pipeline run, or the mode reported by
        #: :func:`repro.incremental.refresh_reduction` after a refresh
        #: (``"reused"`` / ``"partial"`` / ``"full"``).  Shared by reference
        #: with stream views; read by ``session.explain``.
        self._reduction_origin: dict[tuple, str] = {}
        #: Guards the check-then-insert of :meth:`reduced` (and the counter
        #: updates): a session's ``stream()`` runs its solve on a background
        #: thread sharing this cache, and two racing misses for the same key
        #: must not run the pipeline twice.  Shared by reference with stream
        #: views.
        self._cache_lock = threading.Lock()
        #: Guards the kernel-compile memoization of :meth:`kernel`: the
        #: snapshot is memoized *on the graph*, and two threads racing the
        #: first solve would both see no kernel and compile twice.  Separate
        #: from ``_cache_lock`` so a long pipeline run does not block an
        #: unrelated compile (and vice versa); shared by reference with
        #: stream views.
        self._kernel_lock = threading.Lock()
        #: Plain-data cache counters (shared by reference with stream views).
        self.telemetry: dict = {"reduction_hits": 0, "reduction_misses": 0}
        #: Optional ``(size, clique | None) -> None`` incumbent tap.
        self.incumbent_hook = None
        #: Optional :class:`~repro.resilience.Deadline` imposed by the
        #: caller (the service's request budget); engines pass it down to
        #: their solver.  Per-request values ride on context *views*, never
        #: on a shared session context.
        self.deadline = None
        #: Optional ``threading.Event`` that stops an in-flight solve (the
        #: abandoned-stream signal); same view discipline as ``deadline``.
        self.stop_event = None

    def reduced(
        self, k: int, stages: Sequence[str] | None = None
    ) -> tuple[PipelineResult, float, bool]:
        """Reduction artifacts for ``k``: ``(result, seconds_charged, cache_hit)``.

        ``seconds_charged`` is the wall time *this* call spent — the full
        pipeline cost on a miss, ``0.0`` on a hit — so per-query timing
        reflects work actually done rather than double-counting the shared
        run.
        """
        key = (k, tuple(stages or DEFAULT_STAGES))
        with self._cache_lock:
            if key in self._reductions:
                result, _ = self._reductions[key]
                self.telemetry["reduction_hits"] += 1
                return result, 0.0, True
            # The pipeline runs inside the lock: a concurrent request for the
            # same key must wait for (and then reuse) this run, not start its
            # own.  Distinct keys serialise too — acceptable, since a session
            # is driven from one thread plus at most a streaming solve.
            started = time.monotonic()
            result = ReductionPipeline(key[1]).run(self.graph, k)
            elapsed = time.monotonic() - started
            self._reductions[key] = (result, elapsed)
            self._reduction_origin[key] = "cold"
            self.telemetry["reduction_misses"] += 1
            return result, elapsed, False

    def cached_reduction(
        self, k: int, stages: Sequence[str] | None = None
    ) -> PipelineResult | None:
        """The memoized reduction for ``(k, stages)``, or ``None`` — no side effects.

        Used by :meth:`FairCliqueSession.explain`, which must report what a
        query *would* reuse without running anything.
        """
        key = (k, tuple(stages or DEFAULT_STAGES))
        with self._cache_lock:
            entry = self._reductions.get(key)
        return None if entry is None else entry[0]

    def reduction_origin(
        self, k: int, stages: Sequence[str] | None = None
    ) -> str | None:
        """Provenance of the memoized reduction for ``(k, stages)``, or ``None``.

        ``"cold"`` for a from-scratch run, ``"reused"``/``"partial"``/
        ``"full"`` for entries rebuilt by :meth:`refresh` (how much of the
        old artifact survived).
        """
        key = (k, tuple(stages or DEFAULT_STAGES))
        with self._cache_lock:
            return self._reduction_origin.get(key)

    def refresh(self, delta) -> dict:
        """Re-derive every cached reduction for the mutated graph.

        ``delta`` is the composed :class:`~repro.incremental.GraphDelta`
        from the version the cache was built at to ``graph.version``.  Each
        cached ``(k, stages)`` entry is passed through
        :func:`repro.incremental.refresh_reduction`: survivors of components
        the delta never touched are spliced back in verbatim, only touched
        components are re-peeled, and a full pipeline run is the fallback —
        the refreshed artifacts are always content-identical to cold runs on
        the mutated graph.  Returns a mode histogram for telemetry.
        """
        from repro.incremental.reduce import refresh_reduction

        modes: dict[str, int] = {}
        with self._cache_lock:
            old_domain = self._domain
            for key in list(self._reductions):
                old_result, _ = self._reductions[key]
                started = time.monotonic()
                result, info = refresh_reduction(
                    self.graph, delta, old_result, key[0], key[1], old_domain,
                )
                elapsed = time.monotonic() - started
                self._reductions[key] = (result, elapsed)
                self._reduction_origin[key] = info["mode"]
                modes[info["mode"]] = modes.get(info["mode"], 0) + 1
            self._domain = self.graph.attribute_values()
        return modes

    @property
    def reduction_cache_size(self) -> int:
        """Number of distinct (k, stages) reductions currently memoized."""
        return len(self._reductions)

    def kernel(self, graph: AttributedGraph | None = None):
        """Compiled bitset kernel for ``graph`` (default: the context's graph).

        The snapshot is memoized on the graph itself via
        :meth:`AttributedGraph.compile`, and the reduced graphs cached by
        :meth:`reduced` stay alive for the whole batch — so every query that
        reuses a reduction artifact also reuses its compiled kernel, one
        compile per distinct reduced graph.
        """
        target = self.graph if graph is None else graph
        if target.kernel_ready:  # memoized and current: no lock needed
            return target.compile()
        with self._kernel_lock:
            # Double-checked: the loser of the race reuses the winner's
            # compile instead of running its own.
            return target.compile()


def _dispatch_query(
    graph: AttributedGraph,
    query: FairCliqueQuery,
    context: SolveContext,
    registry: EngineRegistry | None = None,
) -> SolveReport:
    """Resolve and run one validated query (engine func or enumeration task)."""
    engine = (registry or default_registry).resolve(query)
    if query.task != "maximum":
        return run_task(graph, query, context)
    return engine.func(graph, query, context)


def solve(
    graph: AttributedGraph,
    query: FairCliqueQuery | None = None,
    *,
    registry: EngineRegistry | None = None,
    **query_fields,
) -> SolveReport:
    """Answer one fair-clique query — a thin wrapper over an ephemeral session.

    Either pass a ready-made :class:`FairCliqueQuery`, or pass its fields as
    keywords and the query is built for you::

        solve(graph, model="relative", k=3, delta=1)
        solve(graph, FairCliqueQuery(model="weak", k=3, engine="heuristic"))

    Re-querying the same graph?  Open a
    :class:`~repro.api.session.FairCliqueSession` instead — it keeps the
    reduction artifacts and compiled kernels warm across queries, where this
    function rebuilds them per call.

    Raises :class:`~repro.exceptions.UnsupportedQueryError` when the engine
    does not exist, does not support the model, or cannot answer the task.
    """
    if query is None:
        query = FairCliqueQuery(**query_fields)
    elif query_fields:
        raise InvalidParameterError(
            "pass either a FairCliqueQuery or query fields as keywords, not both"
        )
    from repro.api.session import FairCliqueSession

    with FairCliqueSession(graph, registry=registry) as session:
        return session.solve(query)


def solve_many(
    graph: AttributedGraph,
    queries: Iterable[FairCliqueQuery],
    *,
    registry: EngineRegistry | None = None,
    max_workers: int | None = None,
) -> list[SolveReport]:
    """Answer a batch of queries over one graph — a wrapper over an ephemeral session.

    Reduction artifacts are memoized across queries (one pipeline run per
    distinct ``k``).

    Parameters
    ----------
    max_workers:
        When > 1, solve in a process pool.  Queries are grouped by ``k`` so
        reduction sharing survives the split; the workers dispatch through
        the default registry (custom registries are process-local).  To reuse
        one pool across batches, call :meth:`FairCliqueSession.solve_many`
        on one session.
    """
    from repro.api.session import FairCliqueSession

    with FairCliqueSession(graph, registry=registry) as session:
        return session.solve_many(queries, max_workers=max_workers)


def _validated_queries(
    queries: Iterable[FairCliqueQuery],
    registry: EngineRegistry | None,
) -> list[FairCliqueQuery]:
    """Materialise ``queries`` and fail fast before any solving starts."""
    query_list = list(queries)
    reg = registry or default_registry
    for query in query_list:
        reg.resolve(query)
        validate_task(query)
    return query_list


def _check_executor(graph: AttributedGraph, executor: "BatchExecutor") -> None:
    """Reject an executor whose workers hold a different graph than ``graph``."""
    if executor.graph is not graph:
        raise InvalidParameterError(
            "the BatchExecutor was created for a different graph; "
            "build one per graph (its workers hold that graph)"
        )
    if graph.version != executor.graph_version:
        raise InvalidParameterError(
            "the graph was mutated after the BatchExecutor was "
            "created; its workers hold the pre-mutation snapshot — "
            "build a fresh executor"
        )


# --------------------------------------------------------------------------- #
# Process-pool plumbing
# --------------------------------------------------------------------------- #
#: Worker-process globals, set once by the pool initializer: the shipped
#: graph and a persistent per-worker context so chunks that land on the same
#: worker share reduction artifacts across the whole sweep.
_WORKER_GRAPH: AttributedGraph | None = None
_WORKER_CONTEXT: SolveContext | None = None


def _init_batch_worker(graph: AttributedGraph) -> None:
    """Pool initializer: receive the graph once, build the worker's context."""
    global _WORKER_GRAPH, _WORKER_CONTEXT
    _WORKER_GRAPH = graph
    _WORKER_CONTEXT = SolveContext(graph)


def _solve_chunk(queries: list[FairCliqueQuery]) -> list[SolveReport]:
    """Worker entry point: solve a chunk against the initializer-shipped graph."""
    graph = _WORKER_GRAPH
    context = _WORKER_CONTEXT
    if graph is None or context is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("batch worker used before its initializer ran")
    return [_dispatch_query(graph, query, context) for query in queries]


class BatchExecutor:
    """A reusable process pool with the graph shipped once to every worker.

    Creating the pool pays the graph pickling cost ``max_workers`` times —
    after that, submitting a chunk ships only the queries.  A
    :class:`~repro.api.session.FairCliqueSession` owns one and reuses it
    across every ``solve_many`` on the session.
    """

    def __init__(self, graph: AttributedGraph, max_workers: int) -> None:
        from concurrent.futures import ProcessPoolExecutor

        if max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be a positive integer, got {max_workers!r}"
            )
        self.graph = graph
        #: The graph's mutation version at pool creation — what the workers
        #: actually hold.  solve_many refuses the executor if it has moved.
        self.graph_version = graph.version
        self.max_workers = max_workers
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_batch_worker,
            initargs=(graph,),
        )

    def submit_chunk(self, queries: list[FairCliqueQuery]):
        """Submit one chunk; returns the future of its report list."""
        return self._pool.submit(_solve_chunk, queries)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._pool.shutdown()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _solve_parallel(
    graph: AttributedGraph,
    queries: list[FairCliqueQuery],
    max_workers: int,
    executor: BatchExecutor,
) -> list[SolveReport]:
    # Same-k queries share a worker (and therefore one reduction run) —
    # but a single-k sweep must not collapse into one sequential chunk,
    # so each k-group is further split across the idle workers.  Every
    # extra subchunk pays one redundant reduction run; that trade is
    # what buys the parallelism.
    indexed = list(enumerate(queries))
    keyed = sorted(indexed, key=lambda pair: (pair[1].k, pair[0]))
    groups = [
        list(group)
        for _, group in itertools.groupby(keyed, key=lambda pair: pair[1].k)
    ]
    splits_per_group = max(1, max_workers // len(groups))
    chunks = []
    for group in groups:
        size = -(-len(group) // splits_per_group)  # ceil division
        chunks.extend(group[start:start + size] for start in range(0, len(group), size))

    ordered: list[SolveReport | None] = [None] * len(queries)
    futures = [
        (chunk, executor.submit_chunk([query for _, query in chunk]))
        for chunk in chunks
    ]
    for chunk, future in futures:
        for (index, _), report in zip(chunk, future.result()):
            ordered[index] = report
    return [report for report in ordered if report is not None]
