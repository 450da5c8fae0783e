"""Tests for vertex-level reductions and the staged reduction pipeline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.enumeration import brute_force_maximum_fair_clique
from repro.exceptions import AttributeCountError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import complete_graph, from_edge_list
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.reduction.core_reduction import (
    colorful_core_reduction,
    drop_isolated_vertices,
    enhanced_colorful_core_reduction,
)
from repro.reduction.pipeline import (
    DEFAULT_STAGES,
    STAGE_REGISTRY,
    PipelineResult,
    ReductionPipeline,
    reduce_graph,
)


class TestCoreReductions:
    def test_colorful_core_reduction_keeps_clique(self, balanced_clique):
        result = colorful_core_reduction(balanced_clique, 4)
        assert result.graph.num_vertices == 8

    def test_enhanced_core_reduction_keeps_clique(self, balanced_clique):
        result = enhanced_colorful_core_reduction(balanced_clique, 4)
        assert result.graph.num_vertices == 8

    def test_enhanced_never_larger_than_plain(self, community_fixture):
        for k in (2, 3, 4):
            plain = colorful_core_reduction(community_fixture, k)
            enhanced = enhanced_colorful_core_reduction(community_fixture, k)
            assert enhanced.graph.num_vertices <= plain.graph.num_vertices

    def test_sparse_graph_removed(self):
        graph = from_edge_list([(1, 2), (2, 3)], {1: "a", 2: "b", 3: "a"})
        result = enhanced_colorful_core_reduction(graph, 3)
        assert result.graph.num_vertices == 0
        assert result.vertices_removed == 3

    def test_drop_isolated_vertices(self):
        graph = from_edge_list([(1, 2)], {1: "a", 2: "b", 3: "a", 4: "b"})
        result = drop_isolated_vertices(graph)
        assert result.graph.num_vertices == 2
        assert result.name == "DropIsolated"

    @given(seed=st.integers(min_value=0, max_value=10), k=st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_core_reductions_preserve_optimum(self, seed, k):
        graph = community_graph(3, 9, intra_probability=0.85, inter_edges=2, seed=seed)
        delta = 2
        optimum = brute_force_maximum_fair_clique(graph, k, delta).size
        for reduction in (colorful_core_reduction, enhanced_colorful_core_reduction):
            reduced = reduction(graph, k).graph
            surviving = (
                brute_force_maximum_fair_clique(reduced, k, delta).size
                if reduced.num_vertices
                else 0
            )
            assert surviving == optimum


class TestAttributeDomainEdges:
    """The binary-only stages refuse other domains; the incremental refresh
    relies on the :class:`AttributeCountError` to fall back to a pass-through."""

    #: Per-vertex attributes of a complete graph on each domain.
    DOMAINS = {"empty": "", "one-valued": "aaaaaa", "three-valued": "abcabc"}

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    @pytest.mark.parametrize("stage", ["EnColorfulCore", "ColorfulSup", "EnColorfulSup"])
    def test_binary_stages_raise(self, stage, domain):
        graph = complete_graph(dict(enumerate(self.DOMAINS[domain])))
        with pytest.raises(AttributeCountError):
            STAGE_REGISTRY[stage](graph, 2)

    def test_colorful_core_on_empty_graph_is_empty(self):
        result = colorful_core_reduction(AttributedGraph(), 3)
        assert result.graph.num_vertices == 0
        assert (result.vertices_before, result.edges_before) == (0, 0)


class TestPipeline:
    def test_default_stage_order(self):
        pipeline = ReductionPipeline()
        assert pipeline.stage_names == DEFAULT_STAGES

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            ReductionPipeline(["NotAStage"])

    def test_pipeline_runs_all_stages(self, community_fixture):
        result = reduce_graph(community_fixture, 3)
        assert isinstance(result, PipelineResult)
        assert [stage.name for stage in result.stages] == list(DEFAULT_STAGES)
        assert result.vertices_before == community_fixture.num_vertices
        assert result.vertices_after <= result.vertices_before
        assert result.edges_after <= result.edges_before

    def test_pipeline_stops_early_when_empty(self):
        graph = from_edge_list([(1, 2), (2, 3)], {1: "a", 2: "b", 3: "a"})
        result = reduce_graph(graph, 4)
        assert result.vertices_after == 0
        assert len(result.stages) <= len(DEFAULT_STAGES)

    def test_stage_lookup(self, community_fixture):
        result = reduce_graph(community_fixture, 2)
        assert result.stage("ColorfulSup").name == "ColorfulSup"
        with pytest.raises(KeyError):
            result.stage("Missing")

    def test_stages_are_monotone(self, community_fixture):
        result = reduce_graph(community_fixture, 3)
        edges = [stage.edges_after for stage in result.stages]
        assert edges == sorted(edges, reverse=True)

    def test_summary_contains_all_stage_names(self, community_fixture):
        summary = reduce_graph(community_fixture, 3).summary()
        for name in DEFAULT_STAGES[: summary.count("\n") + 1]:
            assert name in summary

    def test_custom_stage_order(self, community_fixture):
        custom = ReductionPipeline(["ColorfulCore", "ColorfulSup"])
        result = custom.run(community_fixture, 3)
        assert [stage.name for stage in result.stages][: len(result.stages)] == (
            ["ColorfulCore", "ColorfulSup"][: len(result.stages)]
        )

    @given(seed=st.integers(min_value=0, max_value=8), k=st.integers(min_value=2, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_full_pipeline_preserves_optimum(self, seed, k):
        graph = erdos_renyi_graph(24, 0.5, seed=seed)
        delta = 1
        optimum = brute_force_maximum_fair_clique(graph, k, delta).size
        reduced = reduce_graph(graph, k).graph
        surviving = (
            brute_force_maximum_fair_clique(reduced, k, delta).size
            if reduced.num_vertices
            else 0
        )
        assert surviving == optimum
