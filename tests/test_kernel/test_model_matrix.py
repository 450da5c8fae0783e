"""Model matrix: every fairness model, serial and on two workers.

The search, reductions and bounds above the kernel serve all four fairness
models through one code path.  This suite pins, per model, that a serial
solve matches the kernel-free fair-clique oracle (``tests/conftest.py``),
that the 2-worker parallel executor returns the serial size, and that the
kernel's ``stack_evaluate`` returns the dict reference bound value of every
stack.  It also pins that the way a kernel came to be — compiled fresh,
compiled from an equal graph built in another insertion order, patched
after mutations that cancel out, or unpickled as a worker without ``fork``
receives it — changes neither answers, search counters nor peel survivors.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.api import FairCliqueQuery, solve
from repro.bounds.base import make_context
from repro.bounds.stacks import get_stack, stack_names
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.kernel import SubgraphView, compile_kernel, greedy_color_array
from repro.kernel.bounds import stack_evaluate
from repro.kernel.reduce import support_peel, survivors_mask
from repro.search.maxrfc import MaxRFC, assert_valid_result, build_search_config

MODELS = ("relative", "weak", "strong", "multi_weak")

COUNTER_FIELDS = (
    "branches_explored",
    "solutions_found",
    "pruned_by_size",
    "pruned_by_attribute_feasibility",
    "pruned_by_fairness_gap",
    "pruned_by_bound",
    "pruned_by_incumbent",
    "bound_evaluations",
)


def _graph():
    return erdos_renyi_graph(35, 0.3, seed=0)


def _graphs():
    return [
        erdos_renyi_graph(35, 0.3, seed=0),
        erdos_renyi_graph(35, 0.3, seed=2),
        community_graph(3, 10, intra_probability=0.8, inter_edges=2, seed=5),
    ]


def _query(model: str, workers=None) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(model=model, k=2, delta=delta, workers=workers)


def _counters(stats):
    return {field: getattr(stats, field) for field in COUNTER_FIELDS}


def _patched_back(graph):
    """``graph`` with its memoized kernel patched twice: one edge added and
    removed again in two mutation batches, so the graph is unchanged."""
    graph.compile()
    vertices = sorted(graph.vertices(), key=str)
    u, v = next(
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
        if not graph.has_edge(u, v)
    )
    graph.add_edge(u, v)
    graph.compile()
    graph.remove_edge(u, v)
    graph.compile()
    assert graph.kernel_stats() == {"compiled": 1, "patched": 2}
    return graph


class TestSerialSearchMatrix:
    @pytest.mark.parametrize("model", MODELS)
    def test_oracle_agrees(self, model, oracle):
        """Every model's exact answer matches the kernel-free oracle."""
        graph = _graph()
        query = _query(model)
        oracle.check(graph, solve(graph, query), model, query.k, query.delta,
                     label=model)

    @pytest.mark.parametrize("model", MODELS)
    def test_models_identical_across_kernel_routes(self, model, shuffled_rebuild):
        for index, graph in enumerate(_graphs()):
            reference = solve(graph, _query(model))
            others = {
                "shuffled": shuffled_rebuild(graph, seed=index),
                "patched": _patched_back(graph.copy()),
            }
            for route, other in others.items():
                report = solve(other, _query(model))
                assert report.clique == reference.clique, (model, route)
                assert report.size == reference.size, (model, route)
                assert report.optimal == reference.optimal, (model, route)

    @pytest.mark.parametrize("k,delta", [(2, 1), (3, 1), (3, 2)])
    def test_search_counters_identical(self, k, delta, shuffled_rebuild):
        """Not just the answer: the *trajectory* (every counter) must match."""
        graph = erdos_renyi_graph(40, 0.6, seed=1)
        routes = {
            "fresh": graph,
            "shuffled": shuffled_rebuild(graph, seed=k + delta),
            "patched": _patched_back(graph.copy()),
        }
        results = {
            route: MaxRFC(build_search_config()).solve(other, k, delta)
            for route, other in routes.items()
        }
        reference = results["fresh"]
        assert reference.clique and reference.stats.branches_explored > 0
        for route, result in results.items():
            assert result.clique == reference.clique, route
            assert _counters(result.stats) == _counters(reference.stats), route
            assert_valid_result(graph, result)


class TestParallelSearchMatrix:
    """Every model through the 2-worker executor.

    Parallel branch counters are racy by design (incumbent broadcasts land
    at different times), so the pinned contract is the answer, optimality,
    and the executor telemetry — counters stay serial-only.
    """

    @pytest.mark.parametrize("model", MODELS)
    def test_two_worker_solves_match_serial(self, model):
        graph = community_graph(
            3, 16, intra_probability=0.6, inter_edges=0, seed=21
        )
        serial = solve(graph, _query(model))
        report = solve(graph, _query(model, workers=2))
        assert report.size == serial.size, model
        assert report.optimal, model
        assert report.metadata["parallel"].get("shard_failures", {}) == {}


class TestReductionMatrix:
    """Peeling survivors do not depend on how the kernel was obtained."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("enhanced", [False, True], ids=["ColorfulSup", "EnColorfulSup"])
    def test_peel_survivors_identical(self, k, enhanced, shuffled_rebuild):
        kept = 0
        for index, graph in enumerate(_graphs()):
            fresh = compile_kernel(graph)
            kernels = {
                "fresh": fresh,
                "shuffled": shuffled_rebuild(graph, seed=index).compile(),
                "patched": _patched_back(graph.copy()).compile(),
                "unpickled": pickle.loads(pickle.dumps(fresh)),
            }
            outcomes = {}
            for route, kernel in kernels.items():
                adj, peeled = support_peel(
                    kernel, k, greedy_color_array(kernel), enhanced
                )
                outcomes[route] = (tuple(adj), peeled, survivors_mask(adj))
            reference = outcomes["fresh"]
            kept |= reference[2]
            for route, outcome in outcomes.items():
                assert outcome == reference, (route, enhanced, index)
        assert kept, "every graph peeled to nothing"


class TestBoundMatrix:
    """``stack_evaluate`` returns the dict reference value of every stack."""

    def test_bound_values_identical(self):
        graph = erdos_renyi_graph(28, 0.45, seed=4)
        order = sorted(graph.vertices(), key=str)
        position_of = {v: p for p, v in enumerate(order)}
        stacks = [get_stack(name) for name in sorted(stack_names())]
        rng = random.Random(11)
        cases = []
        for _ in range(4):
            scope = rng.sample(order, rng.randint(5, len(order)))
            split = rng.randint(0, 2)
            cases.append((scope[:split], scope[split:]))
        view = SubgraphView(graph.compile(), order)
        for clique, candidates in cases:
            clique_mask = sum(1 << position_of[v] for v in clique)
            cand_mask = sum(1 << position_of[v] for v in candidates)
            for stack in stacks:
                expected = stack.evaluate(
                    make_context(graph, clique, candidates, 2, 1)
                )
                got = stack_evaluate(view, stack, clique_mask, cand_mask, 2, 1)
                assert got == expected, stack.names
