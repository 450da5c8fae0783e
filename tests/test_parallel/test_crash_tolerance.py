"""Crash tolerance of the parallel executor under deterministic fault plans.

The acceptance scenario of the resilience subsystem: a fault plan kills a
worker process mid-solve at a chosen shard, and the executor must still
return the exact serial answer — respawning the pool, retrying the lost
shards, and reporting the recovery in the solve telemetry.  Harder failure
modes stack on top: shards that fail every pool attempt fall back to serial
execution in the coordinator, and only a shard that fails even *there*
surfaces as :class:`~repro.resilience.SolveCrashedError`.

These tests install plans in the coordinator; pool workers inherit them at
fork time (``kill`` only ever ``os._exit``s inside a marked worker process,
so the suite itself is never at risk).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.api import FairCliqueQuery, solve
from repro.graph.generators import community_graph
from repro.parallel import executor, worker
from repro.resilience import SolveCrashedError
from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection
from repro.search.verification import is_relative_fair_clique
from repro.variants.multi_attribute import is_multi_attribute_weak_fair_clique

MODELS = ("relative", "weak", "strong", "multi_weak")


def _graph():
    """Three dense components → three-plus shards for a 2-worker pool."""
    return community_graph(3, 16, intra_probability=0.6, inter_edges=0, seed=21)


def _query(model: str, workers: int | None) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(model=model, k=2, delta=delta, workers=workers)


def _verify(graph, report) -> None:
    if not report.found:
        return
    if report.model == "multi_weak":
        assert is_multi_attribute_weak_fair_clique(graph, report.clique, report.k)
    else:
        delta = _query(report.model, None).effective_delta(graph)
        assert is_relative_fair_clique(graph, report.clique, report.k, delta)


def _kill_plan(shard: int = 0, *, every_attempt: bool = False) -> FaultPlan:
    """Kill the worker executing ``shard`` (first attempt only by default)."""
    when = {"shard": shard} if every_attempt else {"shard": shard, "attempt": 1}
    return FaultPlan(specs=(FaultSpec(
        point="shard.run", action="kill", when=when,
        times=None if every_attempt else 1, scope="worker",
    ),))


class TestWorkerKillRecovery:
    """A worker dies mid-solve; the answer must not change."""

    @pytest.mark.parametrize("model", MODELS)
    def test_kill_then_exact_parity(self, model):
        graph = _graph()
        serial = solve(graph, _query(model, None))
        with fault_injection(_kill_plan(shard=0)):
            report = solve(graph, _query(model, 2))
        assert report.size == serial.size
        assert report.optimal
        assert not report.aborted
        _verify(graph, report)
        parallel = report.metadata["parallel"]
        assert parallel["pool_respawns"] >= 1
        assert parallel["pool_breaks"] >= 1
        assert parallel["shards_retried"] >= 1
        assert not parallel["degraded"]

    def test_kill_records_failure_detail(self):
        graph = _graph()
        with fault_injection(_kill_plan(shard=1)):
            report = solve(graph, _query("relative", 2))
        failures = report.metadata["parallel"]["shard_failures"]
        assert any("BrokenProcessPool" in message for message in failures.values())


class TestInitializerKill:
    """Workers die inside the pool initializer, before any shard runs."""

    def test_kill_in_initializer_then_exact_parity(self):
        graph = _graph()
        serial = solve(graph, _query("relative", None))
        plan = FaultPlan(specs=(FaultSpec(
            point="worker.init", action="kill", times=2, scope="worker",
        ),))
        with fault_injection(plan):
            report = solve(graph, _query("relative", 2))
        assert report.size == serial.size
        assert report.optimal
        parallel = report.metadata["parallel"]
        assert parallel["pool_breaks"] >= 1
        assert not parallel["degraded"]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fork start method is unavailable",
)
class TestTerminatedWorker:
    """A broken pool SIGTERMs its surviving workers mid-search."""

    def test_terminated_worker_releases_the_shared_lock_first(self):
        """A worker caught holding the incumbent channel's lock must release
        it before dying, or the serial fallback's next channel read blocks
        forever."""
        self._terminate_while_holding(watch_parent=False)

    def test_parent_watch_thread_leaves_sigterm_to_the_lock_holder(self):
        """Pool workers run a parent-watch thread; SIGTERM must not be
        delivered to it (which would kill the worker mid-lock) while the
        main thread defers the signal."""
        self._terminate_while_holding(watch_parent=True)

    @staticmethod
    def _terminate_while_holding(watch_parent: bool) -> None:
        context = multiprocessing.get_context("fork")
        channel = context.Value("q", 0)
        here, there = context.Pipe()

        def hold() -> None:
            if watch_parent:
                worker._watch_parent()
            with worker._locked(channel):
                there.send("holding")
                there.recv()  # returns only after the SIGTERM was sent
                channel.value = 7

        child = context.Process(target=hold)
        child.start()
        assert here.poll(10) and here.recv() == "holding"
        child.terminate()
        here.send("go")
        child.join(10)
        assert child.exitcode == -signal.SIGTERM
        lock = channel.get_lock()
        assert lock.acquire(timeout=5)
        lock.release()
        assert channel.value == 7


class TestWorkerExceptionRetry:
    """A shard raising inside the worker retries without breaking the pool."""

    def test_raise_then_exact_parity(self):
        graph = _graph()
        serial = solve(graph, _query("relative", None))
        plan = FaultPlan(specs=(FaultSpec(
            point="shard.run", action="raise",
            when={"shard": 0, "attempt": 1}, scope="worker",
        ),))
        with fault_injection(plan):
            report = solve(graph, _query("relative", 2))
        assert report.size == serial.size
        assert report.optimal
        parallel = report.metadata["parallel"]
        assert parallel["shards_retried"] >= 1
        assert parallel["pool_breaks"] == 0  # nobody died; the future failed
        assert not parallel["degraded"]


class TestSerialFallback:
    """A shard that fails every pool attempt still completes — serially."""

    def test_persistent_worker_kill_falls_back_serial(self):
        graph = _graph()
        serial = solve(graph, _query("relative", None))
        # scope="worker": the serial rerun in the coordinator is unaffected.
        with fault_injection(_kill_plan(shard=0, every_attempt=True)):
            report = solve(graph, _query("relative", 2))
        assert report.size == serial.size
        assert report.optimal
        parallel = report.metadata["parallel"]
        assert parallel["serial_fallbacks"] >= 1
        assert not parallel["degraded"]

    def test_failing_shard_gets_max_shard_retries_pools_then_serial(self):
        """A shard raising on every pool attempt runs in the first pool plus
        one fresh pool per retry, then exactly once in the coordinator."""
        graph = _graph()
        serial = solve(graph, _query("relative", None))
        plan = FaultPlan(specs=(FaultSpec(
            point="shard.run", action="raise", when={"shard": 0},
            times=None, scope="worker",
        ),))
        with fault_injection(plan):
            report = solve(graph, _query("relative", 2))
        assert report.size == serial.size
        assert report.optimal
        parallel = report.metadata["parallel"]
        assert parallel["pool_respawns"] == executor.MAX_SHARD_RETRIES
        assert parallel["shards_retried"] == 1
        assert parallel["serial_fallbacks"] == 1
        assert parallel["pool_breaks"] == 0
        assert not parallel["degraded"]

    def test_unrecoverable_shard_raises_solve_crashed(self):
        graph = _graph()
        # scope="any" + unlimited: the shard fails in workers *and* in the
        # coordinator's serial rerun — the one case that must surface.
        plan = FaultPlan(specs=(FaultSpec(
            point="shard.run", action="raise", when={"shard": 0},
            times=None, scope="any",
        ),))
        with fault_injection(plan):
            with pytest.raises(SolveCrashedError) as excinfo:
                solve(graph, _query("relative", 2))
        telemetry = excinfo.value.telemetry
        assert telemetry is not None
        assert telemetry["serial_fallbacks"] >= 1


def _children(pid: int) -> dict[int, str]:
    """``{child pid: start time}`` of a live process, from ``/proc``."""
    children: dict[int, str] = {}
    for listing in Path(f"/proc/{pid}/task").glob("*/children"):
        for child in listing.read_text().split():
            start = _start_time(int(child))
            if start is not None:
                children[int(child)] = start
    return children


def _start_time(pid: int) -> str | None:
    """Start time of a live, non-zombie ``pid`` (None when gone or a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Fields after the parenthesised command: state is the first, the
    # start time (field 22 of proc(5)) the twentieth.
    fields = stat.rsplit(")", 1)[1].split()
    return None if fields[0] == "Z" else fields[19]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads worker pids from /proc"
)
class TestOrphanedWorkers:
    """Pool workers exit once their coordinator is SIGKILLed."""

    COORDINATOR = textwrap.dedent("""
        from repro.api import FairCliqueQuery, solve
        from repro.graph.generators import community_graph
        from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection

        slow = FaultPlan(specs=(FaultSpec(
            point="shard.run", action="sleep", delay=30.0, times=None,
            scope="worker",
        ),))
        graph = community_graph(3, 16, intra_probability=0.6, inter_edges=0,
                                seed=21)
        with fault_injection(slow):
            solve(graph, FairCliqueQuery(model="relative", k=2, delta=1,
                                         workers=2))
    """)

    def test_workers_exit_when_the_coordinator_is_killed(self):
        source = Path(repro.__file__).resolve().parents[1]
        coordinator = subprocess.Popen(
            [sys.executable, "-c", self.COORDINATOR],
            env=dict(os.environ, PYTHONPATH=str(source)),
            stdout=subprocess.DEVNULL,
        )
        workers: dict[int, str] = {}
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                assert coordinator.poll() is None, "the coordinator exited early"
                workers = _children(coordinator.pid)
                time.sleep(0.05)
            assert len(workers) == 2, workers
            coordinator.kill()
            coordinator.wait(10)
            deadline = time.monotonic() + 3
            while time.monotonic() < deadline:
                alive = [pid for pid, start in workers.items()
                         if _start_time(pid) == start]
                if not alive:
                    break
                time.sleep(0.05)
            assert not alive, f"workers {alive} outlived their coordinator"
        finally:
            coordinator.kill()
            coordinator.wait(10)
            for pid, start in workers.items():
                if _start_time(pid) == start:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
