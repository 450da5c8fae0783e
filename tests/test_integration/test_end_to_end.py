"""Integration tests exercising the full pipeline across modules.

These tests combine reduction, bounds, heuristics, the exact search, and the
baselines on non-trivial graphs, checking the cross-module invariants the
paper's architecture relies on:

* reductions never change the optimum;
* every bound stack and configuration of MaxRFC agrees with the brute-force
  oracle;
* the heuristic never beats the exact optimum and its color bound dominates it;
* searches on dataset stand-ins return genuine fair cliques.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.enumeration import brute_force_maximum_fair_clique
from repro.bounds.base import make_context
from repro.bounds.stacks import ALL_BOUNDS, get_stack
from repro.datasets.registry import get_dataset
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    planted_fair_cliques_graph,
    powerlaw_cluster_graph,
)
from repro.heuristic.heur_rfc import HeurRFC
from repro.reduction.pipeline import reduce_graph
from repro.search.maxrfc import MaxRFC, MaxRFCConfig, find_maximum_fair_clique
from repro.search.verification import is_relative_fair_clique


class TestFullPipelineOnPlantedWorkloads:
    @pytest.mark.parametrize("split,k,delta", [((8, 8), 5, 2), ((10, 7), 4, 3), ((6, 6), 6, 0)])
    def test_planted_clique_recovered_through_full_stack(self, split, k, delta):
        background = powerlaw_cluster_graph(150, 4, 0.5, seed=split[0])
        graph = planted_fair_cliques_graph(background, [split], seed=3)
        expected = sum(split)
        result = find_maximum_fair_clique(graph, k, delta)
        assert result.size == expected
        assert is_relative_fair_clique(graph, result.clique, k, delta)

    def test_reduction_then_search_matches_direct_search(self):
        graph = community_graph(5, 10, intra_probability=0.8, inter_edges=3, seed=9)
        k, delta = 3, 1
        direct = find_maximum_fair_clique(graph, k, delta, use_reduction=False)
        reduced = reduce_graph(graph, k).graph
        via_reduction = find_maximum_fair_clique(reduced, k, delta, use_reduction=False)
        assert direct.size == via_reduction.size

    def test_heuristic_exact_and_bounds_are_consistent(self):
        graph = community_graph(4, 12, intra_probability=0.85, inter_edges=2, seed=21)
        k, delta = 3, 2
        exact = find_maximum_fair_clique(graph, k, delta)
        heuristic = HeurRFC().run(graph, k, delta)
        context = make_context(graph, [], graph.vertices(), k, delta)
        assert heuristic.size <= exact.size
        if heuristic.upper_bound:
            assert heuristic.upper_bound >= exact.size
        for bound in ALL_BOUNDS.values():
            assert bound(context) >= exact.size


class TestDatasetStandIns:
    @pytest.mark.parametrize("name", ["DBLP", "Aminer"])
    def test_search_on_stand_in_is_valid_and_stable(self, name):
        spec = get_dataset(name)
        graph = spec.load(scale=0.3)
        first = find_maximum_fair_clique(graph, spec.default_k, spec.default_delta,
                                         time_limit=60.0)
        second = find_maximum_fair_clique(graph, spec.default_k, spec.default_delta,
                                          time_limit=60.0)
        assert first.size == second.size
        assert is_relative_fair_clique(graph, first.clique, spec.default_k, spec.default_delta)

    def test_configurations_agree_on_stand_in(self):
        spec = get_dataset("Aminer")
        graph = spec.load(scale=0.3)
        k, delta = spec.default_k, spec.default_delta
        sizes = set()
        for stack, heuristic in ((None, False), ("ubAD", False), ("ubAD+ubcp", True)):
            result = find_maximum_fair_clique(graph, k, delta, bound_stack=stack,
                                              use_heuristic=heuristic, time_limit=60.0)
            sizes.add(result.size)
        assert len(sizes) == 1

    def test_larger_k_never_increases_optimum(self):
        spec = get_dataset("DBLP")
        graph = spec.load(scale=0.3)
        sizes = []
        for k in (3, 5, 7):
            sizes.append(find_maximum_fair_clique(graph, k, spec.default_delta,
                                                  time_limit=60.0).size)
        non_zero = [size for size in sizes if size]
        assert non_zero == sorted(non_zero, reverse=True)

    def test_larger_delta_never_decreases_optimum(self):
        spec = get_dataset("Aminer")
        graph = spec.load(scale=0.3)
        sizes = [
            find_maximum_fair_clique(graph, spec.default_k, delta, time_limit=60.0).size
            for delta in (0, 2, 4)
        ]
        assert sizes == sorted(sizes)


class TestRandomisedCrossValidation:
    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_full_configuration_matches_oracle_on_er(self, seed):
        graph = erdos_renyi_graph(20, 0.5, seed=seed)
        k, delta = 2, 1
        oracle = brute_force_maximum_fair_clique(graph, k, delta).size
        config = MaxRFCConfig(bound_stack=get_stack("ubAD+ubch"), use_heuristic=True)
        assert MaxRFC(config).solve(graph, k, delta).size == oracle

    @given(seed=st.integers(min_value=0, max_value=15),
           k=st.integers(min_value=2, max_value=4),
           delta=st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_monotonicity_properties(self, seed, k, delta):
        """Optimum is monotone: decreasing in k, increasing in delta."""
        graph = community_graph(3, 10, intra_probability=0.85, inter_edges=2, seed=seed)
        base = find_maximum_fair_clique(graph, k, delta).size
        harder = find_maximum_fair_clique(graph, k + 1, delta).size
        easier = find_maximum_fair_clique(graph, k, delta + 1).size
        if harder:
            assert harder <= base
        assert easier >= base
