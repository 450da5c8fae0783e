"""Backend parity matrix: int × words × numpy must be result-identical.

Mask *values* are plain Python ints in every backend — the backends differ
only in how rows are stored and how bulk primitives are computed — so the
whole search/reduction/bound stack above the kernel must produce *exactly*
the same cliques, survivors, bound values, and search counters no matter
which backend compiled the graph.  This suite pins that claim across all
four fairness models, serially and through the 2-worker parallel executor,
with the kernel-free fair-clique oracle (``tests/conftest.py``) as the
independent reference.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FairCliqueQuery, solve
from repro.bounds.base import make_context
from repro.bounds.stacks import get_stack, stack_names
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.kernel import (
    SubgraphView,
    available_backends,
    compile_kernel,
    greedy_color_array,
)
from repro.kernel.backend import ENV_VAR
from repro.kernel.bounds import stack_evaluate
from repro.kernel.reduce import support_peel, survivors_mask
from repro.search.maxrfc import MaxRFC, assert_valid_result, build_search_config

MODELS = ("relative", "weak", "strong", "multi_weak")

#: Every backend importable in this interpreter; numpy joins automatically
#: when installed, so CI (stdlib only) runs int × words and dev machines run
#: the full triple.
BACKENDS = available_backends()

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


class TestSerialSearchMatrix:
    """backend × model, one solve each, pinned against the int backend."""

    @pytest.mark.parametrize("model", MODELS)
    def test_models_identical_across_backends(self, model, monkeypatch):
        for graph in _graphs():
            reports = {}
            for backend in BACKENDS:
                monkeypatch.setenv(ENV_VAR, backend)
                reports[backend] = solve(graph, _query(model))
            reference = reports["int"]
            for backend, report in reports.items():
                assert report.clique == reference.clique, (model, backend)
                assert report.size == reference.size, (model, backend)
                assert report.optimal == reference.optimal, (model, backend)

    @pytest.mark.parametrize("k,delta", [(2, 1), (3, 1), (3, 2)])
    def test_search_counters_identical(self, k, delta, monkeypatch):
        """Not just the answer: the *trajectory* (every counter) must match."""
        graph = erdos_renyi_graph(35, 0.3, seed=1)
        results = {}
        for backend in BACKENDS:
            monkeypatch.setenv(ENV_VAR, backend)
            results[backend] = MaxRFC(build_search_config()).solve(graph, k, delta)
        reference = results["int"]
        for backend, result in results.items():
            assert result.clique == reference.clique, backend
            assert _counters(result.stats) == _counters(reference.stats), backend
            assert_valid_result(graph, result)

    @pytest.mark.parametrize("model", MODELS)
    def test_oracle_agrees(self, model, monkeypatch, oracle):
        """Every backend also matches the kernel-free oracle."""
        graph = _graphs()[0]
        query = _query(model)
        for backend in BACKENDS:
            monkeypatch.setenv(ENV_VAR, backend)
            oracle.check(graph, solve(graph, query), model, query.k, query.delta,
                         label=backend)


class TestParallelSearchMatrix:
    """backend × model through the 2-worker executor.

    Parallel branch counters are racy by design (incumbent broadcasts land
    at different times), so the pinned contract is the answer, optimality,
    and the executor telemetry — counters stay serial-only.
    """

    @pytest.mark.parametrize("model", MODELS)
    def test_two_worker_solves_match_serial(self, model, monkeypatch):
        graph = community_graph(
            3, 16, intra_probability=0.6, inter_edges=0, seed=21
        )
        monkeypatch.setenv(ENV_VAR, "int")
        serial = solve(graph, _query(model))
        for backend in BACKENDS:
            monkeypatch.setenv(ENV_VAR, backend)
            report = solve(graph, _query(model, workers=2))
            assert report.size == serial.size, (model, backend)
            assert report.optimal, (model, backend)
            parallel = report.metadata["parallel"]
            assert parallel["kernel_backend"] == backend
            assert parallel.get("shard_failures", {}) == {}


class TestReductionMatrix:
    """Peeling survivors are backend-independent."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("enhanced", [False, True], ids=["ColorfulSup", "EnColorfulSup"])
    def test_peel_survivors_identical(self, k, enhanced):
        for graph in _graphs():
            outcomes = {}
            for backend in BACKENDS:
                kernel = compile_kernel(graph, backend)
                adj, peeled = support_peel(kernel, k, greedy_color_array(kernel), enhanced)
                outcomes[backend] = (adj, peeled, survivors_mask(adj))
            reference = outcomes["int"]
            for backend, outcome in outcomes.items():
                assert outcome == reference, (backend, enhanced)


class TestBoundMatrix:
    """``stack_evaluate`` returns the same bound value on every backend."""

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
        for backend in BACKENDS:
            kernel = compile_kernel(graph, backend)
            view = SubgraphView(kernel, graph, order)
            for clique, candidates in cases:
                clique_mask = sum(1 << position_of[v] for v in clique)
                cand_mask = sum(1 << position_of[v] for v in candidates)
                for stack in stacks:
                    expected = stack.evaluate(
                        make_context(graph, clique, candidates, 2, 1)
                    )
                    got = stack_evaluate(
                        view, stack, clique_mask, cand_mask, 2, 1
                    )
                    assert got == expected, (backend, stack.names)
