"""Service-tier durability: warm restart, WAL disk pressure, recovery stats."""

from __future__ import annotations

import pytest

from repro.api import FairCliqueQuery
from repro.graph.generators import community_graph
from repro.resilience.faults import FaultPlan, fault_injection
from repro.service import (
    FairCliqueService,
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)

QUERY = FairCliqueQuery(model="relative", k=2, delta=1)


def _graph(seed: int = 21):
    return community_graph(3, 16, intra_probability=0.6, inter_edges=0, seed=seed)


def _service(tmp_path, **overrides) -> FairCliqueService:
    return FairCliqueService(
        ServiceConfig(port=0, data_dir=str(tmp_path / "data"), **overrides)
    )


@pytest.fixture()
def served(tmp_path):
    """A running durable service; yields ``(service, client)`` and stops it."""
    service = _service(tmp_path)
    handle = ServerHandle.start(service)
    client = ServiceClient(handle.address, retries=0)
    try:
        yield service, client
    finally:
        handle.stop()


def _restart(tmp_path, **overrides):
    service = _service(tmp_path, **overrides)
    handle = ServerHandle.start(service)
    return service, handle, ServiceClient(handle.address, retries=0)


class TestWarmRestart:
    def test_graphs_and_results_survive_restart(self, tmp_path):
        service = _service(tmp_path)
        handle = ServerHandle.start(service)
        client = ServiceClient(handle.address, retries=0)
        client.upload_graph("g1", _graph())
        first = client.solve_raw("g1", QUERY, tier="unlimited")
        assert first["cached"] is False
        handle.stop()  # graceful drain flushes the batched result WAL

        restarted, handle, client2 = _restart(tmp_path)
        try:
            assert restarted.recovery["graphs_recovered"] == 1
            assert restarted.recovery["results_restored"] == 1
            assert "g1" in client2.graphs()
            replay = client2.solve_raw("g1", QUERY, tier="unlimited")
            # The persisted ResultCache answers without re-solving.
            assert replay["cached"] is True
            assert len(replay["report"]["clique"]) == len(
                first["report"]["clique"]
            )
        finally:
            handle.stop()

    def test_acknowledged_graphs_survive_ungraceful_restart(self, tmp_path, served):
        # No drain, no flush: the first service still holds its buffers (the
        # in-process stand-in for SIGKILL).  Graph appends fsync before the
        # ack, so the graph must be there; the batched result WAL is allowed
        # to lose its last batch — that is the documented trade.
        service, client = served
        client.upload_graph("g1", _graph())
        client.solve_raw("g1", QUERY, tier="unlimited")
        restarted, handle, client2 = _restart(tmp_path)
        try:
            assert restarted.recovery["graphs_recovered"] == 1
            assert "g1" in client2.graphs()
        finally:
            handle.stop()

    def test_healthz_and_metrics_report_recovery(self, tmp_path, served):
        service, client = served
        client.upload_graph("g1", _graph())
        restarted, handle, client2 = _restart(tmp_path)
        try:
            health = client2.healthz()
            assert health["durability"]["recovery"]["graphs_recovered"] == 1
            metrics = client2.metrics()
            assert metrics["durability"]["graphs"]["tail_records"] >= 1
            assert metrics["durability"]["recovery"] == restarted.recovery
        finally:
            handle.stop()

    def test_torn_graph_tail_is_truncated_on_recovery(self, tmp_path, served):
        service, client = served
        client.upload_graph("g1", _graph())
        with open(tmp_path / "data" / "graphs.wal", "ab") as handle_:
            handle_.write(b'{"half a record')
        restarted, handle, client2 = _restart(tmp_path)
        try:
            assert restarted.recovery["graphs_recovered"] == 1
            assert restarted.recovery["truncated_bytes"] > 0
            assert "g1" in client2.graphs()
        finally:
            handle.stop()

    def test_replaced_graph_recovers_latest_version(self, tmp_path, served):
        service, client = served
        client.upload_graph("g1", _graph(seed=21))
        bigger = community_graph(2, 20, intra_probability=0.5,
                                 inter_edges=0, seed=5)
        client.upload_graph("g1", bigger)
        restarted, handle, client2 = _restart(tmp_path)
        try:
            info = client2.graph_info("g1")
            assert info["n"] == bigger.num_vertices
        finally:
            handle.stop()

    def test_without_data_dir_nothing_persists(self, tmp_path):
        service = FairCliqueService(ServiceConfig(port=0))
        assert service.durability is None and service.recovery is None
        handle = ServerHandle.start(service)
        client = ServiceClient(handle.address, retries=0)
        try:
            client.upload_graph("g1", _graph())
            assert client.healthz().get("durability") is None
            assert client.metrics()["durability"] is None
        finally:
            handle.stop()
        assert not (tmp_path / "data").exists()


class TestWalCostOverTheWire:
    """What keeps a WAL-backed service cheap, counted instead of timed:
    one synced append per acknowledged upload, result appends synced only
    once per ``wal_fsync_every`` records, and the same answers as a service
    without a log."""

    UPLOADS = 5
    QUERIES = tuple(
        FairCliqueQuery(model="relative", k=2, delta=delta) for delta in (0, 1)
    )

    def _drive(self, service):
        """Upload every graph and solve each distinct query once on each;
        return the answer sizes and the final /metrics ``durability``."""
        handle = ServerHandle.start(service)
        client = ServiceClient(handle.address, retries=0)
        try:
            sizes = []
            for index in range(self.UPLOADS):
                client.upload_graph(f"g{index}", _graph(seed=index))
                for query in self.QUERIES:
                    response = client.solve_raw(f"g{index}", query,
                                                tier="unlimited")
                    assert response["cached"] is False
                    sizes.append(len(response["report"]["clique"]))
            return sizes, client.metrics()["durability"]
        finally:
            handle.stop()

    def test_synced_uploads_and_batched_results(self, tmp_path):
        solves = self.UPLOADS * len(self.QUERIES)
        plain, no_log = self._drive(FairCliqueService(ServiceConfig(port=0)))
        assert no_log is None
        logged, durability = self._drive(_service(tmp_path, wal_fsync_every=4))
        assert logged == plain
        assert durability["graphs"]["appends"] == self.UPLOADS
        assert durability["graphs"]["fsyncs"] == self.UPLOADS
        assert durability["results"]["appends"] == solves
        assert durability["results"]["fsyncs"] == solves // 4
        restarted, handle, _ = _restart(tmp_path)
        try:
            assert restarted.recovery["graphs_recovered"] == self.UPLOADS
        finally:
            handle.stop()


class TestWalDiskPressure:
    def test_failed_append_returns_503_with_retry_after(self, served):
        service, client = served
        plan = FaultPlan(specs=(
            {"point": "wal.append", "action": "raise", "when": {"log": "graphs"}},
        ))
        with fault_injection(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.upload_graph("g1", _graph())
        error = excinfo.value
        assert error.status == 503
        assert error.retry_after is not None
        assert "durable store write failed" in error.message
        assert service.metrics.counter("wal_errors") == 1
        # The graph was never acknowledged, so it must not be served.
        assert "g1" not in client.graphs()
        # Disk pressure cleared: the retry succeeds.
        client.upload_graph("g1", _graph())
        assert "g1" in client.graphs()

    def test_result_wal_failure_does_not_fail_the_solve(self, served):
        service, client = served
        client.upload_graph("g1", _graph())
        plan = FaultPlan(specs=(
            {"point": "wal.append", "action": "raise", "when": {"log": "results"}},
        ))
        with fault_injection(plan):
            response = client.solve_raw("g1", QUERY, tier="unlimited")
        # The answer is served (results are reproducible) and the loss is
        # counted instead of crashing the connection.
        assert len(response["report"]["clique"]) > 0
        assert service.metrics.counter("wal_errors") == 1


class TestSolveCheckpoints:
    def test_parallel_solve_checkpoint_discarded_on_success(self, served):
        service, client = served
        client.upload_graph("g1", _graph())
        query = FairCliqueQuery(model="relative", k=2, delta=1, workers=2)
        response = client.solve_raw("g1", query, tier="unlimited")
        assert response["report"]["optimal"]
        # A finished solve leaves no checkpoint behind.
        assert service.durability.checkpoints.count() == 0

    def test_serial_solves_do_not_checkpoint(self, served):
        service, client = served
        graph = _graph()
        client.upload_graph("g1", graph)
        assert service._checkpoint_for("g1", graph, QUERY) is None
        parallel = FairCliqueQuery(model="relative", k=2, delta=1, workers=2)
        assert service._checkpoint_for("g1", graph, parallel) is not None
