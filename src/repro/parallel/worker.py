"""Worker-side machinery of the parallel executor.

Each pool worker is initialised exactly once with a :class:`WorkerPayload`
(the compiled kernel snapshot plus the search parameters) and the solve's
three shared values.  Under the ``fork`` start method the worker inherits
them copy-on-write and nothing is pickled; where fork is absent they pickle
once per *worker*, never per shard.  From then on every shard the worker
receives references the snapshot by component index and opens it through
:func:`~repro.parallel.sharding.component_view`, over the layout the kernel
caches.  Forked workers inherit the layouts the coordinator built before
starting the pool; a spawned worker's kernel arrives without them and
builds each one once, so two shards of the same split component share it.

The shared values are ``multiprocessing.Value`` objects, handed over as
pool ``initargs`` (which every start method supports):

* the incumbent channel holds the size of the best fair clique found
  anywhere.  Workers poll it every :data:`POLL_INTERVAL` branches and raise
  their local pruning threshold; they publish through ``on_improve``
  whenever they record a strictly larger clique;
* the branch counter totals explored branches across shards, so
  ``branch_limit`` caps the whole solve;
* the stop flag is set by the coordinator when the caller's ``stop_event``
  fires; workers test it together with the deadline every 64 branches.

A worker exits when its coordinator dies: a daemon thread watches the
parent pid, so a SIGKILLed coordinator leaves no orphaned workers.

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

import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.kernel.compile import GraphKernel
from repro.kernel.search import KernelBranchAndBound
from repro.models.base import ActiveModel
from repro.parallel.sharding import Shard, component_view
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.search.ordering import OrderingStrategy
from repro.search.statistics import SearchStats


#: Branches between incumbent-channel polls inside a worker.  Smaller values
#: propagate incumbents faster but pay one shared-value read per interval.
#: A multiple of 64: the budget check only looks every 64 branches.
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
    ordering: OrderingStrategy
    deadline: Deadline
    branch_limit: int | None


@dataclass
class ShardResult:
    """What a shard sends back: its local incumbent and counters."""

    shard_index: int
    clique: frozenset = frozenset()
    stats: SearchStats = field(default_factory=SearchStats)
    aborted: bool = False
    seconds: float = 0.0


#: Per-worker state: the payload and the shared values.
_STATE: dict = {}


def _init_worker(payload: WorkerPayload, shared: dict) -> None:
    """Pool initializer: cache the payload and the solve's shared values.

    ``shared`` maps :func:`solve_shard`'s ``channel``, ``branch_counter``
    and ``stop`` arguments to the coordinator's values.
    """
    faults.mark_worker_process()
    faults.maybe_fire("worker.init")
    _STATE.clear()
    _STATE["payload"] = payload
    _STATE["shared"] = shared
    # Recursion can go as deep as the largest clique; give it headroom
    # (mirrors the serial search's guard, which runs in the coordinator).
    sys.setrecursionlimit(max(sys.getrecursionlimit(), payload.kernel.n + 1000))
    _watch_parent()


def _watch_parent() -> None:
    """Start a daemon thread that exits the worker once its parent is gone.

    Polling ``os.getppid()`` works on every POSIX system, unlike Linux's
    ``PR_SET_PDEATHSIG``, which also fires when merely the forking *thread*
    of a still-live coordinator exits.  The thread starts with SIGTERM
    blocked, so a terminating pool's SIGTERM always lands on the main
    thread, where :func:`_locked` defers it while a shared lock is held.
    """
    parent = os.getppid()

    def watch() -> None:
        while True:
            time.sleep(0.5)
            if os.getppid() != parent:
                os._exit(1)

    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        threading.Thread(target=watch, daemon=True).start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


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


def _make_budget_check(searcher: KernelBranchAndBound, payload: WorkerPayload,
                       channel, branch_counter, stop, published: list):
    """Per-branch callback: budget enforcement + incumbent-channel polling.

    Every 64 branches the shard stops on an expired deadline or a set stop
    flag.  ``branch_limit`` is a *global* budget, matching the serial
    search's contract of one cap on total explored branches: every shard
    publishes its local count to the shared counter every 64 branches and
    aborts once the total exceeds the limit — the overshoot is bounded by
    ``64 * pool size``.  ``published`` is a one-cell list tracking how many
    of this shard's branches the counter already holds, so
    :func:`solve_shard` can flush the remainder when the shard ends.
    """
    deadline = payload.deadline
    branch_limit = payload.branch_limit

    def check(stats: SearchStats) -> None:
        branches = stats.branches_explored
        if branches % 64:
            return
        if deadline.expired() or stop.value:
            raise ShardBudgetExceeded()
        if branch_limit is not None:
            with _locked(branch_counter):
                branch_counter.value += branches - published[0]
                total = branch_counter.value
            published[0] = branches
            if total > branch_limit:
                raise ShardBudgetExceeded()
        if branches % POLL_INTERVAL == 0:
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
        _STATE["payload"], shard, **_STATE["shared"], attempt=attempt,
    )


def solve_shard(
    payload: WorkerPayload,
    shard: Shard,
    *,
    channel,
    branch_counter,
    stop,
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
    searcher = KernelBranchAndBound(
        view=component_view(
            payload.kernel, shard.component_index, payload.ordering
        ),
        model=payload.model,
        stats=stats,
        check_budget=_noop_budget,
        best_size=_read(channel),
        best_clique=frozenset(),
        on_improve=_make_publisher(channel),
    )
    published = [0]
    searcher.check_budget = _make_budget_check(
        searcher, payload, channel, branch_counter, stop, published
    )
    roots = None
    if shard.root_positions is not None:
        roots = sum(1 << position for position in shard.root_positions)
    aborted = False
    try:
        searcher.run(roots)
    except ShardBudgetExceeded:
        aborted = True
    finally:
        if payload.branch_limit is not None:
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
