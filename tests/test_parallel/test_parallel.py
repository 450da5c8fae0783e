"""Determinism and correctness of the component-sharded parallel executor.

The headline guarantee: for every fairness model and worker count, the
parallel executor returns a *verified* fair clique of exactly the size the
serial kernel search returns.  The specific clique may differ (the incumbent
race is worker-order dependent), the size may not.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading

import pytest

from repro.api import FairCliqueQuery, solve
from repro.api.batch import BatchExecutor, _check_executor
from repro.exceptions import InvalidParameterError
from repro.graph.builders import complete_graph, from_edge_list, paper_example_graph
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    quasi_clique_blobs,
)
from repro.kernel.compile import GraphKernel, compile_kernel
from repro.kernel.search import KernelBranchAndBound
from repro.models import make_model
from repro.parallel import (
    ParallelMaxRFC,
    WorkerPayload,
    plan_shards,
    solve_parallel,
)
from repro.parallel import executor as executor_module
from repro.parallel import sharding
from repro.parallel.worker import solve_shard
from repro.resilience.deadline import Deadline
from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection
from repro.search.maxrfc import MaxRFC, build_search_config
from repro.search.statistics import SearchStats
from repro.search.verification import is_relative_fair_clique
from repro.variants.multi_attribute import is_multi_attribute_weak_fair_clique

MODELS = ("relative", "weak", "strong", "multi_weak")

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fork start method is unavailable",
)


@pytest.fixture
def split_above(monkeypatch):
    """Set :data:`repro.parallel.sharding.SPLIT_THRESHOLD` for one test."""

    def set_threshold(value: int) -> None:
        monkeypatch.setattr(sharding, "SPLIT_THRESHOLD", value)

    return set_threshold


def _shared_values() -> dict:
    """Fresh shared values for a direct :func:`solve_shard` call."""
    return {
        "channel": multiprocessing.Value("q", 0),
        "branch_counter": multiprocessing.Value("q", 0),
        "stop": multiprocessing.Value("b", 0, lock=False),
    }


def _multi_component_graph():
    """Three dense components of different hardness (inter_edges=0 keeps them apart)."""
    return community_graph(3, 16, intra_probability=0.6, inter_edges=0, seed=21)


def _single_component_graph():
    return complete_graph({i: ("a" if i % 2 == 0 else "b") for i in range(10)})


def _empty_after_reduction_graph():
    """A path graph: every vertex dies in the colorful-core peel for k=2."""
    return from_edge_list(
        [(i, i + 1) for i in range(12)],
        {i: ("a" if i % 2 == 0 else "b") for i in range(13)},
    )


GRAPHS = {
    "multi-component": _multi_component_graph,
    "single-component": _single_component_graph,
    "empty-after-reduction": _empty_after_reduction_graph,
}


def _query(model: str, workers: int | None) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(model=model, k=2, delta=delta, workers=workers)


def _verify(graph, report) -> None:
    if not report.found:
        return
    if report.model == "multi_weak":
        assert is_multi_attribute_weak_fair_clique(graph, report.clique, report.k)
    else:
        # weak/strong map onto the relative checker through their
        # effective delta; the query object owns that mapping.
        query = _query(report.model, None)
        delta = query.effective_delta(graph)
        assert is_relative_fair_clique(graph, report.clique, report.k, delta)


class TestDeterminismAcrossModelsAndWorkers:
    """Same clique size as the serial kernel path: 4 models × 1/2/4 workers."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("model", MODELS)
    def test_parallel_size_matches_serial(self, graph_name, model):
        graph = GRAPHS[graph_name]()
        serial = solve(graph, _query(model, None))
        for workers in (1, 2, 4):
            report = solve(graph, _query(model, workers))
            assert report.size == serial.size, (graph_name, model, workers)
            assert report.optimal
            assert not report.aborted
            _verify(graph, report)

    def test_direct_executor_matches_maxrfc(self):
        graph = _multi_component_graph()
        config = build_search_config()
        serial = MaxRFC(config).solve(graph, 2, 1)
        for workers in (2, 4):
            result = solve_parallel(
                graph, 2, 1, workers=workers, config=build_search_config()
            )
            assert result.size == serial.size
            assert is_relative_fair_clique(graph, result.clique, 2, 1)
            telemetry = result.stats.extra["parallel"]
            assert telemetry["workers"] == workers
            assert telemetry["shards"] >= telemetry["components_searched"]

    def test_split_components_return_identical_size(self, split_above):
        """Forcing one-level splits must not change the answer."""
        graph = community_graph(1, 36, intra_probability=0.55,
                                inter_edges=0, seed=4)
        serial = MaxRFC(build_search_config()).solve(graph, 2, 1)
        split_above(8)
        result = ParallelMaxRFC(build_search_config(), workers=2).solve(graph, 2, 1)
        assert result.size == serial.size
        telemetry = result.stats.extra["parallel"]
        assert telemetry["components_split"] == 1
        assert telemetry["shards"] > 1


@requires_fork
class TestForkInheritance:
    """The pool hands its payload over without pickling under fork."""

    def test_workers_inherit_the_kernel_unpickled(self, monkeypatch):
        """Pickling a kernel raises here, so a pool that tried to ship one
        would break and the serial fallback would still answer: the zero
        counters are what prove every shard ran in a worker."""
        graph = _multi_component_graph()
        serial = solve(graph, _query("relative", None))

        def refuse(self):
            raise AssertionError("a kernel was pickled")

        monkeypatch.setattr(GraphKernel, "__getstate__", refuse)
        report = solve(graph, _query("relative", 2))
        assert report.size == serial.size
        parallel = report.metadata["parallel"]
        assert parallel["serial_fallbacks"] == 0
        assert parallel["shards_retried"] == 0
        assert parallel["pool_breaks"] == 0


def _counting_spawn_context(started: list):
    """A ``spawn`` context that records every process it creates."""
    spawn = multiprocessing.get_context("spawn")

    class CountingSpawnContext(type(spawn)):
        def Process(self, *args, **kwargs):
            started.append(None)
            return spawn.Process(*args, **kwargs)

    return CountingSpawnContext()


class TestPickledPayload:
    """Without fork the payload reaches each worker by pickle."""

    def test_unpickled_payload_solves_every_shard_identically(self):
        """The clone must run the very same search: same clique and same
        branch count per shard."""
        graph = _multi_component_graph()
        kernel = compile_kernel(graph)
        model = _active(graph)
        plan = plan_shards(kernel, model, workers=2)
        config = build_search_config()
        payload = WorkerPayload(
            kernel=kernel,
            model=model,
            ordering=config.ordering,
            deadline=Deadline.unbounded(),
            branch_limit=None,
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert type(clone.kernel) is GraphKernel
        for shard in plan.shards:
            ours = solve_shard(payload, shard, **_shared_values())
            theirs = solve_shard(clone, shard, **_shared_values())
            assert theirs.clique == ours.clique, shard
            assert (
                theirs.stats.branches_explored == ours.stats.branches_explored
            ), shard

    def test_spawned_workers_get_one_pickled_kernel_each(self, monkeypatch):
        """Emulate a platform without fork: a ``spawn`` pool whose workers
        can only receive the kernel and the shared values by pickle.  Every
        shard must still run in a worker, and the kernel must be pickled
        exactly once per worker process started, without the layouts the
        coordinator cached before starting the pool."""
        graph = _multi_component_graph()
        serial = solve(graph, _query("relative", None))
        pickled: list[tuple] = []
        original = GraphKernel.__getstate__

        def counting(self):
            state = original(self)
            pickled.append((self._layouts, state))
            return state

        monkeypatch.setattr(GraphKernel, "__getstate__", counting)
        started: list = []
        context = _counting_spawn_context(started)
        monkeypatch.setattr(executor_module, "_pool_context", lambda: context)
        report = solve(graph, _query("relative", 2))
        assert report.size == serial.size
        assert report.optimal
        parallel = report.metadata["parallel"]
        assert parallel["serial_fallbacks"] == 0
        assert parallel["shards_retried"] == 0
        assert parallel["pool_breaks"] == 0
        assert 1 <= len(started) <= parallel["pool_size"]
        assert len(pickled) == len(started)
        for cached, state in pickled:
            assert cached
            assert state["_layouts"] is None


class TestBudgetAborts:
    def test_branch_budget_returns_partial_result_with_aborted_flag(self):
        background = erdos_renyi_graph(0, 0.0)
        hard = quasi_clique_blobs(background, num_blobs=3, blob_size=36,
                                  edge_probability=0.55, seed=7)
        report = solve(hard, FairCliqueQuery(
            model="relative", k=2, delta=1, workers=2,
            options={"branch_limit": 40, "use_heuristic": False},
        ))
        assert report.aborted
        assert not report.optimal
        telemetry = report.metadata["parallel"]
        assert telemetry["aborted_shards"] >= 1
        # The merged best-so-far must still be a genuine fair clique.
        if report.found:
            assert is_relative_fair_clique(hard, report.clique, 2, 1)

    @pytest.mark.parametrize("start_method", [
        pytest.param("fork", marks=requires_fork), "spawn",
    ])
    def test_branch_limit_is_global_across_shards(self, start_method,
                                                  monkeypatch):
        """branch_limit caps *total* explored branches, as in the serial search.

        Workers publish to a shared counter every 64 branches, so the
        overshoot is bounded by 64 per pool slot (plus the check that trips
        mid-publish) — not multiplied by the shard count.  A spawned pool
        receives the counter through its initializer like a forked one.
        """
        if start_method == "spawn":
            context = _counting_spawn_context([])
            monkeypatch.setattr(executor_module, "_pool_context", lambda: context)
        background = erdos_renyi_graph(0, 0.0)
        hard = quasi_clique_blobs(background, num_blobs=4, blob_size=36,
                                  edge_probability=0.55, seed=7)
        # Without bounds/heuristic the four blobs explore ~1250+ branches in
        # total, a few hundred each — so a global cap of 900 can only trip
        # through the shared counter; a (buggy) per-shard cap would never
        # fire and the assertion below would catch the regression.
        limit = 900
        result = ParallelMaxRFC(
            build_search_config(branch_limit=limit, bound_stack=None,
                                use_heuristic=False),
            workers=2,
        ).solve(hard, 2, 1)
        assert result.stats.timed_out
        # Overshoot is bounded by the unpublished 64-branch windows of the
        # concurrently running shards.
        assert result.stats.branches_explored <= limit + 64 * 2 * 2 + 64

    def test_serial_and_parallel_report_aborted_consistently(self):
        graph = _multi_component_graph()
        for workers in (None, 2):
            report = solve(graph, FairCliqueQuery(
                model="relative", k=2, delta=1, workers=workers,
            ))
            assert not report.aborted
            assert report.aborted == report.stats.timed_out


def _active(graph, model="relative", k=2, delta=1):
    """A bound model for direct plan/search construction in these tests."""
    spec = make_model(model, k, delta if model == "relative" else None, graph)
    return spec.activate(graph)


class TestShardPlanning:
    def test_plan_covers_every_root_position_exactly_once(self, split_above):
        # One 30-vertex component plus a small satellite one: the big
        # component holds more than a 1/workers share, so it must split.
        graph = community_graph(1, 30, intra_probability=0.5,
                                inter_edges=0, seed=3)
        kernel = graph.compile()
        split_above(10)
        plan = plan_shards(kernel, _active(graph), workers=2)
        assert plan.components_split == 1
        positions: list[int] = []
        for shard in plan.shards:
            assert shard.is_split
            positions.extend(shard.root_positions)
            # Positions inside one shard are strictly descending (serial
            # root-iteration order).
            assert list(shard.root_positions) == sorted(
                shard.root_positions, reverse=True
            )
        assert sorted(positions) == list(range(30))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_oversized_component_splits_two_shards_per_worker(
        self, workers, split_above,
    ):
        graph = community_graph(1, 30, intra_probability=0.5,
                                inter_edges=0, seed=3)
        split_above(10)
        plan = plan_shards(graph.compile(), _active(graph), workers=workers)
        assert plan.components_split == 1
        assert len(plan.shards) == 2 * workers
        assert all(shard.root_positions for shard in plan.shards)

    def test_split_never_deals_fewer_than_one_root_per_shard(
        self, split_above,
    ):
        """A component smaller than ``2 * workers`` splits into one shard
        per root position rather than into empty shards."""
        graph = community_graph(1, 12, intra_probability=0.7,
                                inter_edges=0, seed=3)
        split_above(4)
        plan = plan_shards(graph.compile(), _active(graph), workers=8)
        assert plan.components_split == 1
        assert sorted(shard.root_positions for shard in plan.shards) == [
            (position,) for position in range(12)
        ]

    def test_balanced_components_stay_whole(self, split_above):
        """Equal components at pool size balance by themselves — no split."""
        graph = community_graph(2, 30, intra_probability=0.5,
                                inter_edges=0, seed=3)
        split_above(10)
        plan = plan_shards(graph.compile(), _active(graph), workers=2)
        assert plan.components_split == 0
        assert len(plan.shards) == 2

    def test_small_components_become_whole_shards(self):
        graph = _multi_component_graph()
        plan = plan_shards(graph.compile(), _active(graph), workers=4)
        assert plan.components_searched == 3
        assert plan.components_split == 0
        assert all(not shard.is_split for shard in plan.shards)

    def test_infeasible_components_are_skipped(self):
        # One all-'a' triangle component can never host a fair clique.
        graph = from_edge_list(
            [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
            {1: "a", 2: "a", 3: "a", 4: "a", 5: "b", 6: "a"},
        )
        plan = plan_shards(graph.compile(), _active(graph, k=1, delta=1),
                           workers=2)
        assert plan.components_skipped == 1
        assert plan.components_searched == 1

    def test_empty_kernel_plans_nothing(self):
        from repro.graph.attributed_graph import AttributedGraph
        from repro.models import RelativeFairness

        empty = AttributedGraph()
        plan = plan_shards(empty.compile(), RelativeFairness(2, 1).bind(("a", "b")))
        assert plan.shards == ()


class TestRunRoots:
    """``run(roots)`` is the one root loop: whole components and shards."""

    @staticmethod
    def _component():
        graph = erdos_renyi_graph(24, 0.45, seed=13)
        kernel = graph.compile()
        component_index = max(
            range(len(kernel.component_masks())),
            key=lambda index: kernel.component_masks()[index].bit_count(),
        )
        return graph, kernel, component_index

    @staticmethod
    def _searcher(view, model):
        return KernelBranchAndBound(
            view=view, model=model, stats=SearchStats(),
            check_budget=lambda stats: None,
            best_size=0, best_clique=frozenset(), has_budget=False,
        )

    @pytest.mark.parametrize("bound_stack", [None, "ubAD"])
    def test_full_root_mask_is_the_whole_search(self, bound_stack):
        """``run()`` and ``run(full_mask)`` visit the same tree: same
        clique and the same value in every counter."""
        graph, kernel, index = self._component()
        model = make_model("relative", 2, 1, graph).activate(graph, bound_stack)
        view = sharding.component_view(
            kernel, index, build_search_config().ordering, graph
        )
        whole = self._searcher(view, model)
        whole.run()
        masked = self._searcher(view, model)
        masked.run(view.full_mask)
        assert masked.best_clique == whole.best_clique
        assert masked.stats == whole.stats
        assert whole.best_size > 0

    def test_every_split_reaches_the_whole_component_optimum(
        self, split_above,
    ):
        """Fresh searchers over the round-robin buckets ``plan_shards``
        deals, and over every single root position, each reach at most the
        whole-component best — and the best of them reaches it.  A clique
        found from a mask of root positions starts at one of them."""
        graph, kernel, index = self._component()
        model = _active(graph)
        view = sharding.component_view(
            kernel, index, build_search_config().ordering, graph
        )
        whole = self._searcher(view, model)
        whole.run()
        split_above(4)
        plan = plan_shards(kernel, model, workers=2)
        buckets = [
            shard.root_positions for shard in plan.shards
            if shard.component_index == index
        ]
        assert len(buckets) == 4
        singles = [(position,) for position in range(view.n)]
        for roots in (buckets, singles):
            sizes = []
            for positions in roots:
                searcher = self._searcher(view, model)
                searcher.run(sum(1 << position for position in positions))
                sizes.append(searcher.best_size)
                if searcher.best_clique:
                    first = min(view.verts.index(v) for v in searcher.best_clique)
                    assert first in positions
            assert max(sizes) == whole.best_size, roots
            assert all(size <= whole.best_size for size in sizes), roots


class TestConcurrentPools:
    """Two solves in two threads each hand their own shared values to their
    own pool: a channel leaking across would over-prune the smaller graph."""

    def test_concurrent_solves_match_their_serial_sizes(self):
        graphs = (
            _multi_component_graph(),
            community_graph(3, 20, intra_probability=0.8, inter_edges=0, seed=5),
        )
        options = {"use_heuristic": False}

        def query(workers):
            return FairCliqueQuery(model="relative", k=2, delta=1,
                                   workers=workers, options=options)

        serial = [solve(graph, query(None)).size for graph in graphs]
        assert serial[0] != serial[1]
        # Slow submits keep both pools starting their workers at once.
        slow_submits = FaultPlan(specs=(FaultSpec(
            point="pool.submit", action="sleep", delay=0.02, times=None,
            scope="coordinator",
        ),))
        for _ in range(3):
            sizes = [None, None]
            barrier = threading.Barrier(2)

            def run(index):
                barrier.wait()
                sizes[index] = solve(graphs[index], query(2)).size

            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(2)]
            with fault_injection(slow_submits):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert sizes == serial


class TestConfiguration:
    def test_workers_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model="relative", k=2, delta=1, workers=0)

    def test_serial_engines_note_ignored_workers(self):
        graph = _single_component_graph()
        for engine in ("heuristic", "brute_force"):
            report = solve(graph, FairCliqueQuery(
                model="relative", k=2, delta=1, engine=engine, workers=4,
            ))
            assert "workers_ignored" in report.metadata, engine
            serial = solve(graph, FairCliqueQuery(
                model="relative", k=2, delta=1, engine=engine,
            ))
            assert "workers_ignored" not in serial.metadata, engine

    def test_one_worker_never_spawns_a_pool(self):
        graph = _multi_component_graph()
        result = ParallelMaxRFC(build_search_config(), workers=1).solve(graph, 2, 1)
        assert "parallel" not in result.stats.extra
        assert result.size == MaxRFC(build_search_config()).solve(graph, 2, 1).size


class TestBatchExecutor:
    """The batch pool behind ``solve_many(..., max_workers=N)``."""

    def test_pool_refuses_a_foreign_or_mutated_graph(self):
        """Workers hold the graph pickled at pool creation: a session must
        never hand its pool a different or since-mutated graph."""
        graph = _multi_component_graph()
        with BatchExecutor(graph, max_workers=2) as executor:
            _check_executor(graph, executor)
            with pytest.raises(InvalidParameterError, match="different graph"):
                _check_executor(paper_example_graph(), executor)
            graph.add_vertex("late", "a")
            with pytest.raises(InvalidParameterError, match="mutated"):
                _check_executor(graph, executor)
