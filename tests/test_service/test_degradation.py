"""Service-tier degradation: breakers, degraded answers, retrying client.

A live server under an armed fault plan must shed load the way the
resilience design says: repeated solve crashes open the graph's circuit
breaker (503 + ``Retry-After``), ``/healthz`` turns ``degraded`` while any
breaker is open, ``allow_degraded`` requests receive a heuristic answer
flagged in the envelope instead of a 500, and the client's bounded retry
schedule honours the server's hints.

The server runs in-process (``ServerHandle``), so ``fault_injection``
scopes a plan around it deterministically.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession, solve
from repro.graph.builders import paper_example_graph
from repro.graph.generators import community_graph
from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection
from repro.resilience.retry import RetryPolicy
from repro.service import (
    FairCliqueService,
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)


def _query(**extra) -> FairCliqueQuery:
    return FairCliqueQuery(model="relative", k=2, delta=1, **extra)


@pytest.fixture
def server():
    """A function-scoped server with a twitchy breaker (fresh state per test)."""
    service = FairCliqueService(ServiceConfig(
        port=0, session_capacity=4,
        breaker_threshold=2, breaker_reset_seconds=0.4,
    ))
    service.add_graph("paper", paper_example_graph())
    handle = ServerHandle.start(service)
    try:
        yield service, ServiceClient(handle.address, retries=0)
    finally:
        handle.stop()


def _crash_plan(graph: str, times: int | None) -> FaultPlan:
    return FaultPlan(specs=(FaultSpec(
        point="service.solve", action="raise", when={"graph": graph}, times=times,
    ),))


class TestCircuitBreaker:
    def test_crashes_open_then_probe_closes(self, server):
        service, client = server
        with fault_injection(_crash_plan("paper", times=2)):
            # Two crashes → 500s, and the threshold-2 breaker opens.
            for _ in range(2):
                with pytest.raises(ServiceError) as excinfo:
                    client.solve("paper", _query())
                assert excinfo.value.status == 500
            # Open breaker: fail fast with 503 + a Retry-After hint.
            with pytest.raises(ServiceError) as excinfo:
                client.solve("paper", _query())
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert "circuit breaker" in excinfo.value.message

            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["breakers_open"] == ["paper"]

            # After the reset window the half-open probe is admitted; the
            # fault budget (times=2) is spent, so the probe succeeds and
            # the breaker closes.
            time.sleep(0.5)
            report = client.solve("paper", _query())
            assert report.optimal
        assert client.healthz()["status"] == "ok"

        metrics = client.metrics()
        assert metrics["http"]["counters"]["solver_crashes"] == 2
        assert metrics["breakers"]["opened_total"] == 1
        assert metrics["breakers"]["rejected_total"] >= 1
        assert metrics["breakers"]["by_key"]["paper"]["state"] == "closed"

    def test_breakers_are_per_graph(self, server):
        service, client = server
        service.add_graph("healthy", paper_example_graph())
        with fault_injection(_crash_plan("paper", times=None)):
            for _ in range(2):
                with pytest.raises(ServiceError):
                    client.solve("paper", _query())
            with pytest.raises(ServiceError) as excinfo:
                client.solve("paper", _query())
            assert excinfo.value.status == 503
            # The poisoned graph never takes its neighbours down.
            assert client.solve("healthy", _query()).optimal
            assert client.healthz()["breakers_open"] == ["paper"]


class TestAllowDegraded:
    def test_degraded_falls_back_to_heuristic(self, server):
        service, client = server
        with fault_injection(_crash_plan("paper", times=None)):
            envelope = client.solve_raw("paper", _query(), allow_degraded=True)
        assert envelope["degraded"] is True
        assert "injected fault" in envelope["degraded_reason"]
        report = envelope["report"]
        assert report["engine"] == "heuristic"
        assert not report["optimal"]
        # The degraded answer is still a real verified fair clique.
        assert len(report["clique"]) >= 1
        assert client.metrics()["http"]["counters"]["degraded_responses"] == 1

    def test_degraded_crash_still_counts_toward_breaker(self, server):
        service, client = server
        with fault_injection(_crash_plan("paper", times=None)):
            for _ in range(2):
                client.solve_raw("paper", _query(), allow_degraded=True)
            # The breaker opened behind the degraded answers: even
            # opted-in callers now fail fast instead of re-crashing.
            with pytest.raises(ServiceError) as excinfo:
                client.solve_raw("paper", _query(), allow_degraded=True)
            assert excinfo.value.status == 503

    def test_without_opt_in_crash_is_a_500(self, server):
        service, client = server
        with fault_injection(_crash_plan("paper", times=1)):
            with pytest.raises(ServiceError) as excinfo:
                client.solve("paper", _query())
        assert excinfo.value.status == 500
        assert "injected fault" in excinfo.value.message


class TestClientRetry:
    def test_connection_fault_is_retried(self, server):
        service, handicapped = server
        # The handler's http.request seam drops the first connection; a
        # retrying client absorbs it invisibly.
        client = ServiceClient(
            handicapped.host + f":{handicapped.port}",
            retry_policy=RetryPolicy(retries=2, base_delay=0.01, seed=1),
        )
        plan = FaultPlan(specs=(FaultSpec(
            point="http.request", action="disconnect", times=1,
        ),))
        with fault_injection(plan):
            assert client.solve("paper", _query(), tier="unlimited").optimal
        assert client.metrics()["http"]["counters"]["client_disconnects"] >= 1

    def test_retries_zero_opts_out(self, server):
        _, client = server  # fixture client has retries=0
        plan = FaultPlan(specs=(FaultSpec(
            point="http.request", action="disconnect", times=1,
        ),))
        with fault_injection(plan):
            with pytest.raises((ConnectionError, ServiceError)):
                client.solve("paper", _query())

    def test_backoff_honours_retry_after(self):
        client = ServiceClient(
            "127.0.0.1:1",
            retry_policy=RetryPolicy(
                retries=1, base_delay=0.01, jitter=0.0, max_delay=5.0, seed=0
            ),
        )
        slept = []
        client._backoff.__func__  # sanity: method exists
        original_sleep = time.sleep
        try:
            import repro.service.client as client_module
            client_module.time.sleep = slept.append
            error = ServiceError(503, "open", retry_after=2.0)
            assert client._backoff(0, error) is True
            assert slept == [2.0]
            # 422 is not retryable no matter the budget.
            assert client._backoff(0, ServiceError(422, "bad")) is False
            # Budget exhausted.
            assert client._backoff(1, error) is False
        finally:
            client_module.time.sleep = original_sleep


class TestStreamStop:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_preset_stop_event_aborts_stream_solve(
        self, budget_graph, searches_past_budget_checks, workers,
    ):
        # The service wires its disconnect Event straight into the solver's
        # budget check; a pre-set event must abort at the first check, in
        # the pool's workers as in the serial search.
        graph = budget_graph
        searches_past_budget_checks(solve(graph, _query(workers=workers)))
        stop = threading.Event()
        stop.set()
        with FairCliqueSession(graph) as session:
            events = list(session.stream(_query(workers=workers), stop_event=stop))
        final = events[-1]
        assert final.final
        assert final.report.aborted
        assert not final.report.optimal

    def test_abandoning_a_parallel_stream_stops_its_workers(self, planted_family):
        # Unstopped, this workers=2 solve without the seed takes seconds
        # (8.4 s on a 2-vCPU host), so a solve thread that ends right after
        # close() was stopped, not finished.
        graph = planted_family(450, 10, 0.6, ((7, 6), (6, 6))).graph(seed=0)
        query = _query(workers=2, options={"use_heuristic": False})
        with FairCliqueSession(graph) as session:
            iterator = session.stream(query)
            next(iterator)       # the pool is searching
            (solver,) = [thread for thread in threading.enumerate()
                         if thread.name == "fairclique-stream"]
            closed = time.monotonic()
            iterator.close()
            solver.join(10)
            stopped_after = time.monotonic() - closed
        assert not solver.is_alive()
        assert stopped_after < 1.0

    def test_abandoning_stream_sets_stop_event(self):
        graph = community_graph(
            3, 40, intra_probability=0.5, inter_edges=0, seed=21
        )
        stop = threading.Event()
        with FairCliqueSession(graph) as session:
            iterator = session.stream(_query(), stop_event=stop)
            next(iterator)       # the solve is live
            assert not stop.is_set()
            iterator.close()     # consumer walks away
        assert stop.is_set()

    def test_injected_stream_disconnect_counts(self, server):
        service, client = server
        plan = FaultPlan(specs=(FaultSpec(
            point="http.stream", action="disconnect", when={"event": 0}, times=1,
        ),))
        with fault_injection(plan):
            events = list(client.stream("paper", _query(), tier="unlimited"))
        # The connection died before the first event: the stream is
        # truncated (no final report) and the server counted the drop.
        assert not any(event.final for event in events)
        assert client.metrics()["http"]["counters"]["client_disconnects"] >= 1
