"""Regression: concurrent first solves must build shared artifacts once.

The service tier drives one ``FairCliqueSession`` from several worker
threads.  Before the fix, two threads racing the cold start would both see
"no compiled kernel" / "no memoized reduction" and each run the build —
wasted work at best, and a torn ``graph._kernel`` memoization at worst.
``SolveContext`` now serialises the kernel compile (``_kernel_lock``) and
runs the reduction pipeline inside its cache lock, so N racing first solves
pay for exactly one compile and one pipeline run.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession
from repro.graph.generators import erdos_renyi_graph
from repro.reduction.pipeline import ReductionPipeline

THREADS = 6


def _solve_concurrently(session, query, threads=THREADS):
    """Fire ``threads`` simultaneous solves; return reports, raise failures."""
    barrier = threading.Barrier(threads)
    reports: list = []
    failures: list[BaseException] = []
    lock = threading.Lock()

    def run() -> None:
        try:
            barrier.wait()
            report = session.solve(query)
            with lock:
                reports.append(report)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            with lock:
                failures.append(error)

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if failures:
        raise failures[0]
    return reports


@pytest.fixture
def graph():
    return erdos_renyi_graph(40, 0.3, seed=11)


class TestConcurrentFirstSolve:
    def test_session_graph_compiled_exactly_once(self, graph, count_compiles):
        # Solves also compile per-solve ephemeral reduced subgraphs (one
        # per thread, by design); the racy shared artifact is the *session
        # graph's* memoized kernel, so count compiles of that object only.
        count_compiles.delay = 0.02     # widen the race window

        with FairCliqueSession(graph) as session:
            query = FairCliqueQuery(model="relative", k=2, delta=1)
            reports = _solve_concurrently(session, query)

        assert sum(target is graph for target in count_compiles) == 1
        sizes = {report.size for report in reports}
        assert len(sizes) == 1      # every thread saw the same answer

    def test_reduction_pipeline_runs_exactly_once(self, graph, monkeypatch):
        runs: list[int] = []
        real_run = ReductionPipeline.run

        def counting_run(self, target, k):
            runs.append(1)
            time.sleep(0.02)        # widen the race window
            return real_run(self, target, k)

        monkeypatch.setattr(ReductionPipeline, "run", counting_run)

        with FairCliqueSession(graph) as session:
            query = FairCliqueQuery(model="relative", k=2, delta=1)
            _solve_concurrently(session, query)
            telemetry = session.context.telemetry
            assert telemetry["reduction_misses"] == 1
            assert telemetry["reduction_hits"] == THREADS - 1

        assert len(runs) == 1

    def test_concurrent_solves_match_serial_answer(self, graph):
        query = FairCliqueQuery(model="weak", k=2)
        with FairCliqueSession(graph) as serial_session:
            expected = serial_session.solve(query).size
        with FairCliqueSession(graph.copy()) as session:
            reports = _solve_concurrently(session, query)
        assert {report.size for report in reports} == {expected}

    @pytest.mark.parametrize("model", ["relative", "weak", "strong",
                                       "multi_weak"])
    def test_all_models_survive_concurrent_cold_start(self, graph, model):
        delta = 1 if model == "relative" else None
        query = FairCliqueQuery(model=model, k=2, delta=delta)
        with FairCliqueSession(graph.copy()) as session:
            reports = _solve_concurrently(session, query, threads=4)
        assert len({report.size for report in reports}) == 1
