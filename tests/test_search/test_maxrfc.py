"""Tests for the MaxRFC exact search: correctness against an independent oracle,
pruning configurations, limits, and edge cases."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.enumeration import brute_force_maximum_fair_clique
from repro.bounds.stacks import get_stack, stack_names
from repro.graph.builders import complete_graph, from_edge_list, planted_fair_clique_graph
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.reduction.pipeline import reduce_graph
from repro.search.maxrfc import (
    MaxRFC,
    MaxRFCConfig,
    assert_valid_result,
    find_maximum_fair_clique,
    maximum_fair_clique_size,
)
from repro.search.ordering import OrderingStrategy
from repro.search.verification import is_relative_fair_clique


class TestPaperExample:
    def test_example1_answer(self, paper_graph):
        """Example 1: the maximum fair clique for k=3, delta=1 has 7 vertices."""
        result = find_maximum_fair_clique(paper_graph, 3, 1)
        assert result.size == 7
        assert result.optimal
        assert is_relative_fair_clique(paper_graph, result.clique, 3, 1)
        # It is the 8-vertex community minus one attribute-a vertex.
        assert result.clique <= {7, 8, 10, 11, 12, 13, 14, 15}

    def test_example1_answer_without_bounds(self, paper_graph):
        result = find_maximum_fair_clique(paper_graph, 3, 1, bound_stack=None,
                                          use_heuristic=False)
        assert result.size == 7

    def test_stricter_delta(self, paper_graph):
        # delta=0 forces an equal split: 3+3 or 4+4; only 3 b's available in
        # the community (7, 8, 14), so the optimum is 6.
        result = find_maximum_fair_clique(paper_graph, 3, 0)
        assert result.size == 6

    def test_infeasible_k(self, paper_graph):
        result = find_maximum_fair_clique(paper_graph, 7, 1)
        assert result.size == 0
        assert not result.found


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.graph.attributed_graph import AttributedGraph

        result = find_maximum_fair_clique(AttributedGraph(), 2, 1)
        assert result.size == 0

    def test_single_attribute_graph(self):
        graph = complete_graph({i: "a" for i in range(6)})
        result = find_maximum_fair_clique(graph, 2, 1)
        assert result.size == 0

    def test_reduction_that_empties_the_graph(self):
        # A path has no triangle, so the k=3 stages peel every vertex: the
        # search answers the empty clique, or passes the caller's warm start
        # through untouched, and either answer is optimal.
        graph = from_edge_list([(1, 2), (2, 3), (3, 4)], {1: "a", 2: "b", 3: "a", 4: "b"})
        assert reduce_graph(graph, 3).vertices_after == 0
        solver = MaxRFC(MaxRFCConfig())
        result = solver.solve(graph, 3, 1)
        assert result.clique == frozenset() and result.optimal
        solver.initial_incumbent = frozenset({1, 2})
        result = solver.solve(graph, 3, 1)
        assert result.clique == frozenset({1, 2}) and result.optimal

    def test_exact_minimum_size_clique(self):
        graph = complete_graph({0: "a", 1: "a", 2: "b", 3: "b"})
        result = find_maximum_fair_clique(graph, 2, 0)
        assert result.size == 4

    def test_disconnected_components(self):
        # Two disjoint fair cliques of different sizes; the larger must win.
        small = {i: ("a" if i < 2 else "b") for i in range(4)}
        large = {i + 10: ("a" if i < 3 else "b") for i in range(6)}
        graph = complete_graph(small)
        for vertex, attribute in large.items():
            graph.add_vertex(vertex, attribute)
        members = sorted(large)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                graph.add_edge(u, v)
        result = find_maximum_fair_clique(graph, 2, 1)
        assert result.size == 6
        assert result.clique == frozenset(large)

    def test_invalid_parameters(self, paper_graph):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            find_maximum_fair_clique(paper_graph, 0, 1)
        with pytest.raises(InvalidParameterError):
            find_maximum_fair_clique(paper_graph, 2, -1)

    def test_planted_clique_is_found_exactly(self):
        graph = planted_fair_clique_graph(6, 5, noise_vertices=30, seed=3)
        result = find_maximum_fair_clique(graph, 4, 2)
        assert result.size == 11
        assert result.clique == frozenset(range(11))


class TestConfigurations:
    @pytest.mark.parametrize("stack_name", list(stack_names()) + [None])
    def test_all_stacks_agree_with_oracle(self, community_fixture, stack_name):
        k, delta = 3, 2
        oracle = brute_force_maximum_fair_clique(community_fixture, k, delta).size
        result = find_maximum_fair_clique(
            community_fixture, k, delta, bound_stack=stack_name, use_heuristic=False
        )
        assert result.size == oracle

    @pytest.mark.parametrize("use_reduction", [True, False])
    @pytest.mark.parametrize("use_heuristic", [True, False])
    def test_reduction_and_heuristic_toggles(self, community_fixture, use_reduction, use_heuristic):
        k, delta = 2, 1
        oracle = brute_force_maximum_fair_clique(community_fixture, k, delta).size
        config = MaxRFCConfig(
            bound_stack=get_stack("ubAD"),
            use_reduction=use_reduction,
            use_heuristic=use_heuristic,
        )
        result = MaxRFC(config).solve(community_fixture, k, delta)
        assert result.size == oracle

    @pytest.mark.parametrize("ordering", list(OrderingStrategy))
    def test_all_orderings_agree_with_oracle(self, community_fixture, ordering):
        k, delta = 3, 1
        oracle = brute_force_maximum_fair_clique(community_fixture, k, delta).size
        result = find_maximum_fair_clique(
            community_fixture, k, delta, ordering=ordering, use_heuristic=False
        )
        assert result.size == oracle

    def test_algorithm_name_reflects_configuration(self, paper_graph):
        plain = find_maximum_fair_clique(paper_graph, 3, 1, bound_stack=None,
                                         use_heuristic=False)
        with_ub = find_maximum_fair_clique(paper_graph, 3, 1, use_heuristic=False)
        full = find_maximum_fair_clique(paper_graph, 3, 1)
        assert plain.algorithm == "MaxRFC"
        assert with_ub.algorithm == "MaxRFC+ub"
        assert full.algorithm == "MaxRFC+ub+HeurRFC"


class TestLimits:
    def test_time_limit_flags_result(self, community_fixture):
        config = MaxRFCConfig(bound_stack=None, time_limit=0.0)
        result = MaxRFC(config).solve(community_fixture, 2, 1)
        # With a zero budget the search may or may not finish the first
        # branches, but it must never crash and must report a valid clique.
        if result.found:
            assert is_relative_fair_clique(community_fixture, result.clique, 2, 1)

    def test_branch_limit(self, community_fixture):
        config = MaxRFCConfig(bound_stack=None, branch_limit=5)
        result = MaxRFC(config).solve(community_fixture, 2, 1)
        assert result.stats.branches_explored <= 6 + 5  # small overshoot allowed
        assert not result.optimal or result.stats.branches_explored <= 5

    def test_stats_counters_populated(self, community_fixture):
        result = find_maximum_fair_clique(community_fixture, 3, 1, use_heuristic=True)
        stats = result.stats.as_dict()
        assert stats["branches_explored"] >= 0
        assert stats["total_seconds"] > 0
        assert result.stats.extra.get("reduction")

    def test_assert_valid_result(self, paper_graph):
        result = find_maximum_fair_clique(paper_graph, 3, 1)
        assert_valid_result(paper_graph, result)

    def test_assert_valid_result_rejects_corrupted(self, paper_graph):
        from repro.exceptions import SearchError
        from repro.search.result import SearchResult

        bad = SearchResult(clique=frozenset({1, 2, 9, 6}), k=3, delta=1)
        with pytest.raises(SearchError):
            assert_valid_result(paper_graph, bad)


class TestAgainstOracle:
    """Randomised cross-validation of the exact search against Bron–Kerbosch."""

    @given(seed=st.integers(min_value=0, max_value=40),
           k=st.integers(min_value=1, max_value=3),
           delta=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_random_er_graphs(self, seed, k, delta):
        graph = erdos_renyi_graph(18, 0.45, seed=seed)
        oracle = brute_force_maximum_fair_clique(graph, k, delta)
        result = find_maximum_fair_clique(graph, k, delta)
        assert result.size == oracle.size
        if result.found:
            assert is_relative_fair_clique(graph, result.clique, k, delta)

    @given(seed=st.integers(min_value=0, max_value=15))
    @settings(max_examples=12, deadline=None)
    def test_random_community_graphs(self, seed):
        graph = community_graph(3, 8, intra_probability=0.8, inter_edges=2, seed=seed)
        k, delta = 2, 1
        oracle = brute_force_maximum_fair_clique(graph, k, delta)
        assert maximum_fair_clique_size(graph, k, delta) == oracle.size
