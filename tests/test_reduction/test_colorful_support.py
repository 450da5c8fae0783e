"""Tests for the colorful-support (ColorfulSup) and enhanced (EnColorfulSup) reductions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.enumeration import brute_force_maximum_fair_clique
from repro.coloring.greedy import greedy_coloring
from repro.exceptions import AttributeCountError
from repro.graph.builders import complete_graph, from_edge_list
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.reduction.colorful_support import (
    colorful_support_reduction,
    colorful_supports,
    edge_key,
    support_thresholds,
)
from repro.reduction.enhanced_support import (
    edge_satisfies_enhanced_support,
    enhanced_colorful_support_reduction,
    enhanced_colorful_supports,
    enhanced_supports_for_groups,
)


class TestSupportComputation:
    def test_edge_key_is_order_independent(self):
        assert edge_key(2, 7) == edge_key(7, 2)

    def test_thresholds_same_attribute(self):
        assert support_thresholds("a", "a", "a", 4) == (2, 4)
        assert support_thresholds("b", "b", "a", 4) == (4, 2)
        assert support_thresholds("a", "b", "a", 4) == (3, 3)

    def test_thresholds_clamped_to_zero(self):
        assert support_thresholds("a", "a", "a", 1) == (0, 1)

    def test_supports_on_balanced_clique(self, balanced_clique):
        coloring = greedy_coloring(balanced_clique)
        supports = colorful_supports(balanced_clique, coloring)
        # Every edge of the 8-clique (4 a's, 4 b's) has 6 common neighbours
        # with all-distinct colors; the per-attribute split depends on the
        # endpoints' attributes.
        for (u, v), values in supports.items():
            count_a = sum(1 for w in balanced_clique.common_neighbors(u, v)
                          if balanced_clique.attribute(w) == "a")
            assert values["a"] == count_a
            assert values["a"] + values["b"] == 6

    def test_example2_style_support(self):
        # Edge (v2, v5): common neighbours with attribute a are two vertices
        # of distinct colors, one b-attributed common neighbour.
        graph = from_edge_list(
            [(2, 5), (2, 1), (5, 1), (2, 6), (5, 6), (2, 9), (5, 9), (1, 6)],
            {1: "a", 2: "b", 5: "a", 6: "a", 9: "b"},
        )
        supports = colorful_supports(graph)
        assert supports[edge_key(2, 5)]["a"] == 2
        assert supports[edge_key(2, 5)]["b"] == 1


class TestColorfulSupReduction:
    def test_clique_survives(self, balanced_clique):
        result = colorful_support_reduction(balanced_clique, 4)
        assert result.graph.num_vertices == 8
        assert result.graph.num_edges == 28

    def test_too_large_k_removes_everything(self, balanced_clique):
        result = colorful_support_reduction(balanced_clique, 5)
        assert result.graph.num_vertices == 0

    def test_sparse_graph_is_cleared(self):
        graph = from_edge_list([(1, 2), (2, 3), (3, 4)],
                               {1: "a", 2: "b", 3: "a", 4: "b"})
        result = colorful_support_reduction(graph, 2)
        assert result.graph.num_edges == 0

    def test_result_metadata(self, community_fixture):
        result = colorful_support_reduction(community_fixture, 3)
        assert result.name == "ColorfulSup"
        assert result.vertices_before == community_fixture.num_vertices
        assert result.edges_after <= result.edges_before
        assert 0.0 <= result.edge_retention <= 1.0
        assert "ColorfulSup" in result.summary()

    def test_input_graph_untouched(self, community_fixture):
        edges_before = community_fixture.num_edges
        colorful_support_reduction(community_fixture, 4)
        assert community_fixture.num_edges == edges_before

    @given(seed=st.integers(min_value=0, max_value=10), k=st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_reduction_preserves_optimum(self, seed, k):
        """The reduced graph must still contain a maximum fair clique (Lemma 3)."""
        graph = community_graph(3, 9, intra_probability=0.85, inter_edges=2, seed=seed)
        delta = 2
        optimum = brute_force_maximum_fair_clique(graph, k, delta).size
        reduced = colorful_support_reduction(graph, k).graph
        surviving = (
            brute_force_maximum_fair_clique(reduced, k, delta).size
            if reduced.num_vertices
            else 0
        )
        assert surviving == optimum

    @given(seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_remaining_edges_satisfy_thresholds(self, seed):
        """Every surviving edge meets the Lemma 3 conditions (fixed point reached)."""
        graph = erdos_renyi_graph(22, 0.5, seed=seed)
        k = 3
        reduced = colorful_support_reduction(graph, k).graph
        if reduced.num_edges == 0:
            return
        supports = colorful_supports(reduced)
        for u, v in reduced.edges():
            need_a, need_b = support_thresholds(
                reduced.attribute(u), reduced.attribute(v), "a", k
            )
            values = supports[edge_key(u, v)]
            assert values["a"] >= need_a
            assert values["b"] >= need_b


class TestEnhancedSupport:
    def test_greedy_assignment_matches_paper_example3(self):
        # Example 3: c_a=1, c_b=2, c_m=2, k=4, same-attribute-a endpoints
        # (demands 2 and 4) -> gsup_a=2, gsup_b=3.
        assert enhanced_supports_for_groups(1, 2, 2, 2, 4) == (2, 3)

    def test_satisfaction_check(self):
        assert edge_satisfies_enhanced_support(2, 2, 0, 2, 2)
        assert not edge_satisfies_enhanced_support(1, 2, 2, 2, 4)
        assert edge_satisfies_enhanced_support(0, 0, 6, 3, 3)
        assert not edge_satisfies_enhanced_support(0, 0, 5, 3, 3)

    def test_enhanced_supports_never_exceed_plain(self, community_fixture):
        k = 3
        coloring = greedy_coloring(community_fixture)
        plain = colorful_supports(community_fixture, coloring)
        enhanced = enhanced_colorful_supports(community_fixture, k, coloring)
        for key, (gsup_a, gsup_b) in enhanced.items():
            assert gsup_a <= plain[key]["a"]
            assert gsup_b <= plain[key]["b"]

    def test_enhanced_reduction_at_least_as_aggressive(self, community_fixture):
        for k in (2, 3, 4):
            plain = colorful_support_reduction(community_fixture, k)
            enhanced = enhanced_colorful_support_reduction(community_fixture, k)
            assert enhanced.graph.num_edges <= plain.graph.num_edges

    def test_enhanced_reduction_preserves_clique(self, balanced_clique):
        result = enhanced_colorful_support_reduction(balanced_clique, 4)
        assert result.graph.num_edges == 28

    @given(seed=st.integers(min_value=0, max_value=10), k=st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_enhanced_reduction_preserves_optimum(self, seed, k):
        graph = community_graph(3, 9, intra_probability=0.85, inter_edges=2, seed=seed)
        delta = 2
        optimum = brute_force_maximum_fair_clique(graph, k, delta).size
        reduced = enhanced_colorful_support_reduction(graph, k).graph
        surviving = (
            brute_force_maximum_fair_clique(reduced, k, delta).size
            if reduced.num_vertices
            else 0
        )
        assert surviving == optimum


class TestInvalidInput:
    def test_rejects_single_attribute_graph(self):
        graph = complete_graph({i: "a" for i in range(4)})
        with pytest.raises(AttributeCountError):
            colorful_support_reduction(graph, 2)

    def test_rejects_bad_k(self, balanced_clique):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            colorful_support_reduction(balanced_clique, 0)
