"""Worker-side machinery of the parallel executor.

Each pool worker is initialised exactly once with a :class:`WorkerPayload`
(the compiled kernel snapshot plus the search parameters).  Under the
``fork`` start method the worker inherits the payload copy-on-write and
nothing is pickled; where fork is absent the payload pickles once per
*worker*, never per shard.  From then on every shard the worker receives
references the snapshot by component index; component views and orderings
are built lazily and cached in the worker (the "fork-safe per-worker kernel
cache"), so two shards of the same split component share one
:class:`~repro.kernel.view.SubgraphView`.

The incumbent channel is a ``multiprocessing.Value`` holding the size of the
best fair clique found anywhere.  It cannot be pickled into ``initargs``, so
the parent parks it in :data:`_PARENT_CHANNEL` immediately before the pool
forks and the children inherit it (fork start method only; without fork the
executor simply runs without cross-shard tightening, which is slower but
still exact).  Workers poll the channel every :data:`POLL_INTERVAL` branches
and raise their local pruning threshold; they publish through
``on_improve`` whenever they record a strictly larger clique.

A shard that exhausts its time/branch budget raises internally, keeps the
best clique it had found, and reports ``aborted=True`` — the coordinator
merges partial results instead of losing them.

Fault seams: :func:`_init_worker` fires ``worker.init`` and
:func:`solve_shard` fires ``shard.run`` (with the shard index and attempt
number in context), so a :class:`~repro.resilience.faults.FaultPlan` can
kill or fail a chosen shard deterministically.  Shards are pure functions
of the snapshot, which is what makes the coordinator's retry loop sound.
"""

from __future__ import annotations

import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.kernel.bitops import bits_list
from repro.kernel.compile import GraphKernel
from repro.kernel.cores import colorful_core_order
from repro.kernel.search import KernelBranchAndBound
from repro.kernel.view import SubgraphView
from repro.models.base import ActiveModel
from repro.parallel.sharding import Shard
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.search.ordering import OrderingStrategy, compute_ordering
from repro.search.statistics import SearchStats


#: Branches between incumbent-channel polls inside a worker.  Smaller values
#: propagate incumbents faster but pay one shared-value read per interval.
POLL_INTERVAL = 256


class ShardBudgetExceeded(Exception):
    """Internal signal: stop this shard, keep its incumbent."""


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker needs, handed over once by the pool initializer.

    The :class:`~repro.models.base.ActiveModel` carries the fairness model
    bound to the original graph's attribute domain plus the resolved bound
    stack, so workers make exactly the same fairness decisions as the
    coordinator would — for every model, not just the binary ones.
    """

    kernel: GraphKernel
    model: ActiveModel
    bound_depth: int
    ordering: OrderingStrategy
    deadline: Deadline
    branch_limit: int | None
    seed_size: int


@dataclass
class ShardResult:
    """What a shard sends back: its local incumbent and counters."""

    shard_index: int
    clique: frozenset = frozenset()
    stats: SearchStats = field(default_factory=SearchStats)
    aborted: bool = False
    seconds: float = 0.0


#: Parked by the parent right before the pool forks; children inherit them.
_PARENT_CHANNEL = None
_PARENT_BRANCH_COUNTER = None

#: Per-worker state: payload, channels, and the component view cache.
_STATE: dict = {}


def _init_worker(payload: WorkerPayload) -> None:
    """Pool initializer: cache the payload and adopt the inherited channels."""
    faults.mark_worker_process()
    faults.maybe_fire("worker.init")
    _STATE.clear()
    _STATE["payload"] = payload
    _STATE["channel"] = _PARENT_CHANNEL
    _STATE["branch_counter"] = _PARENT_BRANCH_COUNTER
    _STATE["views"] = {}
    # Recursion can go as deep as the largest clique; give it headroom
    # (mirrors the serial search's guard, which runs in the coordinator).
    sys.setrecursionlimit(max(sys.getrecursionlimit(), payload.kernel.n + 1000))


@contextmanager
def _locked(shared):
    """Hold ``shared``'s lock with SIGTERM deferred until it is released.

    A breaking pool terminates its surviving workers.  One terminated while
    holding a shared ``Value``'s lock would leave that lock taken for good,
    and every later user — the coordinator's serial fallback, its channel
    poller, the workers of a respawned pool — would block forever.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        with shared.get_lock():
            yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _read(shared) -> int:
    with _locked(shared):
        return shared.value


#: Cache key for the lazily-materialised dict graph inside a view cache.
_GRAPH_KEY = "__graph__"


def _component_view_of(
    payload: WorkerPayload, component_index: int, views: dict | None
) -> SubgraphView:
    """Rank-ordered view of one component, cached in ``views`` when given.

    Workers pass their per-process cache (two shards of one split component
    share a view); the coordinator's serial fallback passes its own dict.
    """
    if views is None:
        views = {}
    view = views.get(component_index)
    if view is None:
        kernel = payload.kernel
        mask = kernel.component_masks()[component_index]
        if payload.ordering is OrderingStrategy.COLORFUL_CORE:
            ordered = colorful_core_order(kernel, mask)
            graph = views.get(_GRAPH_KEY)
        else:
            # Non-default orderings are defined on the dict graph; the kernel
            # *is* the reduced graph, so materialise it once per worker.
            graph = views.get(_GRAPH_KEY)
            if graph is None:
                graph = views[_GRAPH_KEY] = kernel.materialize()
            component = [kernel.vertex_of[i] for i in bits_list(mask)]
            rank = compute_ordering(graph, component, payload.ordering)
            ordered = sorted(component, key=lambda v: rank[v])
        view = SubgraphView(kernel, graph, ordered)
        views[component_index] = view
    return view


def _make_budget_check(searcher: KernelBranchAndBound, payload: WorkerPayload,
                       channel, branch_counter, published: list):
    """Per-branch callback: budget enforcement + incumbent-channel polling.

    ``branch_limit`` is a *global* budget, matching the serial search's
    contract of one cap on total explored branches.  With a shared counter
    (fork available) every worker publishes its local count every 64
    branches and aborts once the global total exceeds the limit — the
    overshoot is bounded by ``64 * pool size``.  Without the shared counter
    the limit degrades to a per-shard cap (still an abort signal, but a
    looser one).  ``published`` is a one-cell list tracking how many of this
    shard's branches have already been added to the global counter, so
    :func:`run_shard` can flush the remainder when the shard ends.
    """
    deadline = payload.deadline
    branch_limit = payload.branch_limit

    def check(stats: SearchStats) -> None:
        branches = stats.branches_explored
        if branches % 64 == 0 and deadline.expired():
            raise ShardBudgetExceeded()
        if branch_limit is not None:
            if branch_counter is not None:
                if branches % 64 == 0:
                    with _locked(branch_counter):
                        branch_counter.value += branches - published[0]
                        total = branch_counter.value
                    published[0] = branches
                    if total > branch_limit:
                        raise ShardBudgetExceeded()
            elif branches > branch_limit:
                raise ShardBudgetExceeded()
        if channel is not None and branches % POLL_INTERVAL == 0:
            shared = _read(channel)
            if shared > searcher.best_size:
                searcher.best_size = shared

    return check


def _make_publisher(channel):
    """``on_improve`` hook: push a new incumbent size to the shared channel."""

    def publish(size: int) -> None:
        with _locked(channel):
            if size > channel.value:
                channel.value = size

    return publish


def run_shard(shard: Shard, attempt: int = 1) -> ShardResult:
    """Worker entry point: solve one shard, return its partial result.

    ``attempt`` is the coordinator's 1-based submission count for this
    shard; it exists so fault plans can target "the first try of shard 3"
    and let the retry succeed.
    """
    return solve_shard(
        _STATE["payload"], shard,
        channel=_STATE["channel"],
        branch_counter=_STATE["branch_counter"],
        views=_STATE["views"],
        attempt=attempt,
    )


def solve_shard(
    payload: WorkerPayload,
    shard: Shard,
    *,
    channel=None,
    branch_counter=None,
    views: dict | None = None,
    attempt: int = 1,
) -> ShardResult:
    """Solve one shard against an explicit payload (no worker globals).

    This is the pure function behind :func:`run_shard`; the coordinator
    calls it directly — in-process — when a shard has exhausted its pool
    retries and falls back to serial execution.
    """
    faults.maybe_fire(
        "shard.run",
        shard=shard.index,
        component=shard.component_index,
        attempt=attempt,
    )
    started = time.monotonic()
    stats = SearchStats()
    best_size = payload.seed_size
    if channel is not None:
        shared = _read(channel)
        if shared > best_size:
            best_size = shared
    searcher = KernelBranchAndBound(
        view=_component_view_of(payload, shard.component_index, views),
        model=payload.model,
        stats=stats,
        bound_depth=payload.bound_depth,
        check_budget=_noop_budget,
        best_size=best_size,
        best_clique=frozenset(),
        has_budget=(
            channel is not None
            or payload.deadline.bounded
            or payload.branch_limit is not None
        ),
        on_improve=_make_publisher(channel) if channel is not None else None,
    )
    published = [0]
    searcher.check_budget = _make_budget_check(
        searcher, payload, channel, branch_counter, published
    )
    aborted = False
    try:
        if shard.root_positions is None:
            searcher.run()
        else:
            for position in shard.root_positions:
                searcher.run_root_branch(position)
    except ShardBudgetExceeded:
        aborted = True
    finally:
        if branch_counter is not None and payload.branch_limit is not None:
            # Flush the unpublished tail so the global count stays exact
            # between shards.
            with _locked(branch_counter):
                branch_counter.value += stats.branches_explored - published[0]
    return ShardResult(
        shard_index=shard.index,
        clique=searcher.best_clique,
        stats=stats,
        aborted=aborted,
        seconds=time.monotonic() - started,
    )


def _noop_budget(stats: SearchStats) -> None:  # pragma: no cover - placeholder
    """Placeholder replaced right after construction (slots need a value)."""
