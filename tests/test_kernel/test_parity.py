"""Kernel paths against the reference implementations and the oracle.

Exact searches are checked against the kernel-free fair-clique oracle
(``tests/conftest.py``): same optimum size, a valid fair clique, and
``optimal``.  The reduction stages are checked against the reference cores
(:func:`colorful_k_core` / :func:`enhanced_colorful_k_core`) and against a
from-definition support fixpoint; colorings, bound values, maximal-clique
sets against their set-based references (the heuristic against its dict
reference in ``tests/test_heuristic/test_heur_rfc_reference.py``)."""

from __future__ import annotations

import random

import pytest

from repro.api import FairCliqueQuery, solve
from repro.baselines.bron_kerbosch import (
    enumerate_maximal_cliques,
    enumerate_maximal_cliques_reference,
)
from repro.bounds.base import make_context
from repro.bounds.stacks import get_stack, stack_names
from repro.coloring.greedy import greedy_coloring
from repro.cores.colorful import colorful_k_core
from repro.cores.enhanced import enhanced_colorful_k_core
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    quasi_clique_blobs,
)
from repro.heuristic.heur_rfc import HeurRFC
from repro.kernel import SubgraphView, array_to_coloring, greedy_color_array
from repro.kernel.bounds import stack_evaluate
from repro.reduction.colorful_support import (
    colorful_support_reduction,
    colorful_supports,
    support_thresholds,
)
from repro.reduction.core_reduction import (
    colorful_core_reduction,
    enhanced_colorful_core_reduction,
)
from repro.reduction.enhanced_support import (
    enhanced_colorful_support_reduction,
    enhanced_colorful_supports,
)
from repro.search.maxrfc import MaxRFC, MaxRFCConfig, assert_valid_result, build_search_config


def graph_grid():
    """Deterministic random graphs exercised by every parity family."""
    graphs = []
    for seed in range(4):
        graphs.append(erdos_renyi_graph(35, 0.3, seed=seed))
    graphs.append(community_graph(3, 10, intra_probability=0.8, inter_edges=2, seed=5))
    graphs.append(erdos_renyi_graph(24, 0.5, seed=9))
    return graphs


def graph_signature(graph):
    return (
        sorted(map(str, graph.vertices())),
        sorted(sorted(map(str, edge)) for edge in graph.edges()),
        {str(v): graph.attribute(v) for v in graph.vertices()},
    )


class TestColoringParity:
    @pytest.mark.parametrize("graph_index", range(6))
    def test_full_graph_coloring_identical(self, graph_index):
        graph = graph_grid()[graph_index]
        kernel = graph.compile()
        assert array_to_coloring(kernel, greedy_color_array(kernel)) == greedy_coloring(graph)

    def test_scoped_coloring_identical(self):
        graph = erdos_renyi_graph(30, 0.4, seed=2)
        kernel = graph.compile()
        rng = random.Random(0)
        vertices = list(graph.vertices())
        for _ in range(8):
            scope = rng.sample(vertices, rng.randint(1, len(vertices)))
            expected = greedy_coloring(graph, scope)
            got = array_to_coloring(kernel, greedy_color_array(kernel, kernel.mask_of(scope)))
            assert got == expected


class TestSearchAgainstOracle:
    @pytest.mark.parametrize("graph_index", range(6))
    @pytest.mark.parametrize("k,delta", [(2, 0), (2, 1), (3, 1), (3, 2)])
    def test_relative_model(self, graph_index, k, delta, oracle):
        graph = graph_grid()[graph_index]
        result = MaxRFC(build_search_config()).solve(graph, k, delta)
        oracle.check(graph, result, "relative", k, delta, label=f"graph {graph_index}")
        assert_valid_result(graph, result)

    @pytest.mark.parametrize("graph_index", range(4))
    @pytest.mark.parametrize("model", ["relative", "weak", "strong"])
    def test_binary_models_through_the_api(self, graph_index, model, oracle):
        graph = graph_grid()[graph_index]
        delta = 1 if model == "relative" else None
        report = solve(graph, FairCliqueQuery(model=model, k=2, delta=delta))
        oracle.check(graph, report, model, 2, delta, label=f"graph {graph_index}")

    @pytest.mark.parametrize("graph_index", range(3))
    def test_multi_weak_model_against_brute_force(self, graph_index, oracle):
        # The brute-force engine enumerates on the kernel; the oracle does
        # not, so the two pin the multi-attribute search independently.
        graph = graph_grid()[graph_index]
        exact = solve(graph, FairCliqueQuery(model="multi_weak", k=2))
        brute = solve(graph, FairCliqueQuery(model="multi_weak", k=2, engine="brute_force"))
        assert exact.size == brute.size
        oracle.check(graph, exact, "multi_weak", 2, label=f"graph {graph_index}")

    @pytest.mark.parametrize("stack_name", sorted(stack_names()))
    def test_every_bound_stack_config(self, stack_name, oracle):
        # ubAD runs fully on the kernel; the ablation stacks exercise the
        # other native kernel bounds.
        graph = erdos_renyi_graph(30, 0.4, seed=6)
        result = MaxRFC(build_search_config(bound_stack=stack_name)).solve(graph, 2, 1)
        oracle.check(graph, result, "relative", 2, 1, label=stack_name)

    def test_budget_abort_keeps_incumbent(self):
        # A branch-limit abort must return the best clique found so far, not
        # discard it (regression: the abort exception used to unwind past the
        # incumbent).
        graph = community_graph(6, 60, intra_probability=0.4, inter_edges=3, seed=8)
        config = MaxRFCConfig(use_heuristic=False, branch_limit=200)
        result = MaxRFC(config).solve(graph, 2, 1)
        assert not result.optimal
        if result.stats.solutions_found:
            assert result.found
            assert graph.is_clique(result.clique)

    def test_no_reduction_no_heuristic(self, oracle):
        graph = community_graph(2, 9, intra_probability=0.85, inter_edges=1, seed=8)
        for use_heuristic in (False, True):
            result = MaxRFC(
                build_search_config(
                    bound_stack=None, use_reduction=False, use_heuristic=use_heuristic,
                )
            ).solve(graph, 2, 1)
            oracle.check(graph, result, "relative", 2, 1, label=f"heuristic={use_heuristic}")


def support_fixpoint(graph, k, enhanced, coloring=None):
    """The Lemma 3 / Lemma 4 subgraph straight from the definitions.

    Supports are recomputed from scratch under one fixed coloring of the
    input (default: the greedy coloring the stages use), every violating edge
    is dropped, and the round repeats until no edge violates; isolated
    vertices go last.  Returns ``(graph, peeled)``.
    """
    if coloring is None:
        coloring = greedy_coloring(graph)
    attribute_a, attribute_b = graph.attribute_pair()
    working = graph.copy()
    while True:
        if enhanced:
            supports = enhanced_colorful_supports(working, k, coloring)
        else:
            supports = {
                key: (support[attribute_a], support[attribute_b])
                for key, support in colorful_supports(working, coloring).items()
            }
        violating = []
        for (u, v), (support_a, support_b) in supports.items():
            need_a, need_b = support_thresholds(
                working.attribute(u), working.attribute(v), attribute_a, k
            )
            if support_a < need_a or support_b < need_b:
                violating.append((u, v))
        if not violating:
            break
        for u, v in violating:
            working.remove_edge(u, v)
    survivors = [v for v in working.vertices() if working.degree(v) > 0]
    return working.subgraph(survivors), graph.num_edges - working.num_edges


def fixpoint_graphs():
    """The parity grid plus a dense-blob and a power-law instance."""
    return graph_grid() + [
        quasi_clique_blobs(AttributedGraph(), 2, 16, 0.6, seed=3),
        powerlaw_cluster_graph(60, 4, 0.5, seed=2),
    ]


def random_coloring(graph, seed):
    """A seeded coloring with 1-6 colors, proper or not.

    Few colors make a color show up on both attribute sides of an edge and
    let one departure empty a witness, which the greedy coloring rarely does.
    """
    rng = random.Random(seed)
    palette = rng.randint(1, 6)
    return {v: rng.randrange(palette) for v in sorted(graph.vertices(), key=str)}


class TestReductionAgainstReferences:
    @pytest.mark.parametrize("graph_index", range(6))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_core_stages_match_reference_cores(self, graph_index, k):
        graph = graph_grid()[graph_index]
        for stage, core in (
            (colorful_core_reduction, colorful_k_core),
            (enhanced_colorful_core_reduction, enhanced_colorful_k_core),
        ):
            expected = graph.subgraph(core(graph, k - 1, greedy_coloring(graph)))
            got = stage(graph, k)
            assert graph_signature(got.graph) == graph_signature(expected), stage
            assert got.vertices_after == expected.num_vertices
            assert got.edges_after == expected.num_edges

    @pytest.mark.parametrize("graph_index", range(6))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_support_stages_match_the_definition_fixpoint(self, graph_index, k):
        graph = graph_grid()[graph_index]
        for stage, enhanced in (
            (colorful_support_reduction, False),
            (enhanced_colorful_support_reduction, True),
        ):
            expected, peeled = support_fixpoint(graph, k, enhanced)
            got = stage(graph, k)
            assert graph_signature(got.graph) == graph_signature(expected), stage
            assert got.extra["edges_peeled"] == peeled, stage

    @pytest.mark.parametrize("graph_index", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("trial", range(3))
    def test_support_stages_match_the_fixpoint_under_random_colorings(
        self, graph_index, k, trial
    ):
        graph = fixpoint_graphs()[graph_index]
        seed = 100 * graph_index + 10 * k + trial
        coloring = random_coloring(graph, seed)
        for stage, enhanced in (
            (colorful_support_reduction, False),
            (enhanced_colorful_support_reduction, True),
        ):
            expected, peeled = support_fixpoint(graph, k, enhanced, coloring)
            got = stage(graph, k, coloring)
            assert graph_signature(got.graph) == graph_signature(expected), (stage, seed)
            assert got.extra["edges_peeled"] == peeled, (stage, seed)


class TestBoundParity:
    def test_stack_values_identical_on_random_instances(self):
        graph = erdos_renyi_graph(28, 0.45, seed=4)
        kernel = graph.compile()
        order = sorted(graph.vertices(), key=str)
        view = SubgraphView(kernel, order)
        position_of = {v: p for p, v in enumerate(order)}
        rng = random.Random(3)
        stacks = [get_stack(name) for name in sorted(stack_names())]
        for _ in range(6):
            scope = rng.sample(order, rng.randint(4, len(order)))
            split = rng.randint(0, min(2, len(scope)))
            clique, candidates = scope[:split], scope[split:]
            clique_mask = sum(1 << position_of[v] for v in clique)
            cand_mask = sum(1 << position_of[v] for v in candidates)
            for stack in stacks:
                expected = stack.evaluate(make_context(graph, clique, candidates, 2, 1))
                got = stack_evaluate(view, stack, clique_mask, cand_mask, 2, 1)
                assert got == expected, stack.names


class TestCliqueEnumerationParity:
    @pytest.mark.parametrize("graph_index", range(6))
    def test_same_maximal_clique_set(self, graph_index):
        graph = graph_grid()[graph_index]
        via_kernel = set(enumerate_maximal_cliques(graph))
        via_sets = set(enumerate_maximal_cliques_reference(graph))
        assert via_kernel == via_sets

    def test_scoped_enumeration_matches(self):
        graph = erdos_renyi_graph(26, 0.5, seed=7)
        vertices = list(graph.vertices())[:15]
        via_kernel = set(enumerate_maximal_cliques(graph, vertices))
        via_sets = set(enumerate_maximal_cliques_reference(graph, vertices))
        assert via_kernel == via_sets


class TestHeuristicParity:
    @pytest.mark.parametrize("graph_index", range(3))
    def test_heur_rfc_returns_valid_fair_cliques(self, graph_index):
        graph = graph_grid()[graph_index]
        result = HeurRFC().solve(graph, 2, 1)
        if result.found:
            assert graph.is_clique(result.clique)
