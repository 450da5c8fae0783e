"""The FairnessModel layer: model semantics, ``multi_weak`` against the
references across attribute-domain sizes, and parallel size parity for
every model.

The headline guarantees pinned here:

* the multi-attribute weak search returns the kernel-free oracle's optimum,
  and its ColorfulCore reduction keeps exactly the reference colorful core,
  over domains of size 2, 3, and 5;
* ``workers = 1/2/4`` returns the serial optimum size for all four models,
  including ``multi_weak`` (which had no parallel path before the model
  layer existed);
* the model objects themselves behave: quotas, gap caps, domain admission,
  stage/stack selection.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FairCliqueQuery, solve
from repro.coloring.greedy import greedy_coloring
from repro.cores.colorful import colorful_k_core
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.models import (
    MULTI_STAGES,
    FairnessModel,
    MultiWeakFairness,
    RelativeFairness,
    StrongFairness,
    WeakFairness,
    make_model,
)
from repro.reduction.core_reduction import colorful_core_reduction
from repro.search.maxrfc import MaxRFC, build_search_config
from repro.variants.multi_attribute import (
    brute_force_maximum_multi_weak_fair_clique,
    is_multi_attribute_weak_fair_clique,
)

def graph_with_domain(n: int, p: float, seed: int, num_values: int) -> AttributedGraph:
    """An Erdős–Rényi graph whose attributes cycle through ``num_values`` values."""
    rng = random.Random(seed * 31 + num_values)
    base = erdos_renyi_graph(n, p, seed=seed)
    graph = AttributedGraph()
    values = [f"v{i}" for i in range(num_values)]
    for vertex in base.vertices():
        graph.add_vertex(vertex, values[rng.randrange(num_values)])
    for u, v in base.edges():
        graph.add_edge(u, v)
    return graph


class TestModelObjects:
    def test_make_model_round_trip(self):
        graph = graph_with_domain(6, 0.5, 1, 2)
        assert isinstance(make_model("relative", 2, 1), RelativeFairness)
        assert isinstance(make_model("weak", 2, graph=graph), WeakFairness)
        assert isinstance(make_model("strong", 2), StrongFairness)
        assert isinstance(make_model("multi_weak", 2), MultiWeakFairness)
        with pytest.raises(InvalidParameterError):
            make_model("relative", 2)  # delta required
        with pytest.raises(InvalidParameterError):
            make_model("weak", 2, delta=1)  # delta-free model
        with pytest.raises(InvalidParameterError):
            make_model("proportional", 2)

    def test_gap_caps_encode_the_model_family(self):
        graph = graph_with_domain(9, 0.5, 1, 2)
        assert RelativeFairness(2, 3).activate(graph).gap == 3
        assert StrongFairness(2).activate(graph).gap == 0
        weak = make_model("weak", 2, graph=graph).activate(graph)
        assert weak.gap == graph.num_vertices  # the historic unbounded encoding
        assert MultiWeakFairness(2).activate(graph).gap is None

    def test_domain_admission(self):
        binary = graph_with_domain(8, 0.4, 2, 2)
        ternary = graph_with_domain(8, 0.4, 2, 3)
        for name in ("relative", "weak", "strong"):
            model = make_model(name, 2, 1 if name == "relative" else None, binary)
            assert model.admits(binary)
            assert not model.admits(ternary)
        assert MultiWeakFairness(2).admits(binary)
        assert MultiWeakFairness(2).admits(ternary)

    def test_quotas_and_minimum_size_scale_with_domain(self):
        model = MultiWeakFairness(3)
        active = model.bind(("x", "y", "z"))
        assert active.lower == (3, 3, 3)
        assert active.min_size == 9
        assert active.is_fair_histogram({"x": 3, "y": 4, "z": 3})
        assert not active.is_fair_histogram({"x": 3, "y": 4})

    def test_strong_active_model_rejects_uneven_counts(self):
        active = StrongFairness(2).bind(("a", "b"))
        assert active.is_fair_counts([3, 3])
        assert not active.is_fair_counts([3, 4])

    def test_multi_weak_stack_substitution_is_reported(self):
        graph = graph_with_domain(12, 0.6, 3, 3)
        noted = solve(graph, FairCliqueQuery(
            model="multi_weak", k=1, options={"bound_stack": "ubAD"},
        ))
        assert noted.metadata["bound_stack_substituted"]["used"] == ["ubs", "ubc"]
        from repro.bounds.base import BoundStack
        from repro.bounds.simple import UB_COLOR, UB_SIZE
        from repro.bounds.structural import UB_DEGENERACY

        free = BoundStack((UB_SIZE, UB_COLOR, UB_DEGENERACY))
        honoured = solve(graph, FairCliqueQuery(
            model="multi_weak", k=1, options={"bound_stack": free},
        ))
        assert "bound_stack_substituted" not in honoured.metadata
        assert honoured.size == noted.size

    def test_stage_and_stack_selection(self):
        binary = make_model("relative", 2, 1)
        multi = MultiWeakFairness(2)
        assert binary.reduction_stages(("EnColorfulCore", "ColorfulSup")) == (
            "EnColorfulCore", "ColorfulSup",
        )
        assert multi.reduction_stages(("EnColorfulCore", "ColorfulSup")) == MULTI_STAGES
        assert multi.resolve_bound_stack(None) is None
        stack = multi.resolve_bound_stack("ubAD")
        assert stack is not None
        assert set(stack.names) == {"ubs", "ubc"}  # attribute-free bounds only
        binary_stack = binary.resolve_bound_stack("ubAD")
        assert "ubac" in binary_stack.names

    def test_verify_matches_reference_checkers(self):
        graph = graph_with_domain(14, 0.6, 5, 3)
        model = MultiWeakFairness(1)
        clique = brute_force_maximum_multi_weak_fair_clique(graph, 1)
        if clique:
            assert model.verify(graph, clique)
        assert not model.verify(graph, list(graph.vertices()))

    def test_custom_model_plugs_into_the_search(self):
        """Adding a model is a small class: here, 'at least k of value v0 only'."""

        class FirstValueQuota(FairnessModel):
            name = "first_value_quota"
            requires_binary = False

            def lower_quotas(self, num_values):
                return (self.k,) + (0,) * (num_values - 1)

            def reduction_stages(self, requested):
                return ()  # no sound reduction written for this toy model

            def resolve_bound_stack(self, requested):
                return None

        graph = graph_with_domain(12, 0.5, 7, 3)
        result = MaxRFC(build_search_config(use_reduction=False)).solve_model(
            graph, FirstValueQuota(2)
        )
        # Oracle: largest maximal clique with >= 2 vertices of value v0.
        from repro.baselines.bron_kerbosch import enumerate_maximal_cliques

        best = 0
        for clique in enumerate_maximal_cliques(graph):
            if sum(1 for v in clique if graph.attribute(v) == "v0") >= 2:
                best = max(best, len(clique))
        assert result.size == best


class TestMultiWeakAgainstReferences:
    """Optimum and ColorfulCore survivors on 2/3/5-valued domains."""

    @pytest.mark.parametrize("num_values", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_search_matches_oracle(self, num_values, seed, oracle):
        graph = graph_with_domain(26, 0.5, seed, num_values)
        k = 1 if num_values == 5 else 2
        result = MaxRFC(build_search_config()).solve_model(graph, MultiWeakFairness(k))
        oracle.check(graph, result, "multi_weak", k, label=f"seed={seed}")

    @pytest.mark.parametrize("num_values", [2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_reduction_survivors_match_reference_core(self, num_values, k):
        graph = graph_with_domain(30, 0.4, 11, num_values)
        reduced = colorful_core_reduction(graph, k).graph
        expected = graph.subgraph(colorful_k_core(graph, k - 1, greedy_coloring(graph)))
        assert sorted(map(str, reduced.vertices())) == sorted(map(str, expected.vertices()))
        assert reduced.num_edges == expected.num_edges

    @pytest.mark.parametrize("num_values", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_search_matches_brute_force(self, num_values, seed):
        graph = graph_with_domain(18, 0.55, seed, num_values)
        k = 1 if num_values == 5 else 2
        oracle = brute_force_maximum_multi_weak_fair_clique(graph, k)
        report = solve(graph, FairCliqueQuery(model="multi_weak", k=k))
        assert report.size == len(oracle)
        if report.found:
            assert is_multi_attribute_weak_fair_clique(graph, report.clique, k)


class TestParallelSizeParityAllModels:
    """workers = 1/2/4 return the serial optimum size, multi_weak included."""

    @pytest.mark.parametrize("model", ["relative", "weak", "strong", "multi_weak"])
    def test_binary_domain_parallel_parity(self, model):
        graph = community_graph(3, 14, intra_probability=0.65, inter_edges=0, seed=33)
        delta = 1 if model == "relative" else None
        serial = solve(graph, FairCliqueQuery(model=model, k=2, delta=delta))
        for workers in (1, 2, 4):
            report = solve(
                graph, FairCliqueQuery(model=model, k=2, delta=delta, workers=workers)
            )
            assert report.size == serial.size, (model, workers)
            assert report.optimal

    @pytest.mark.parametrize("num_values", [3, 5])
    def test_multi_valued_domain_parallel_parity(self, num_values):
        # Dense disconnected blobs so every worker gets real branch work.
        graph = AttributedGraph()
        rng = random.Random(num_values)
        values = [f"v{i}" for i in range(num_values)]
        vertex = 0
        for blob in range(3):
            members = []
            for i in range(12):
                graph.add_vertex(vertex, values[(vertex + i) % num_values])
                members.append(vertex)
                vertex += 1
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if rng.random() < 0.8:
                        graph.add_edge(u, v)
        serial = solve(graph, FairCliqueQuery(model="multi_weak", k=1))
        assert serial.found
        for workers in (1, 2, 4):
            report = solve(
                graph, FairCliqueQuery(model="multi_weak", k=1, workers=workers)
            )
            assert report.size == serial.size, workers
            assert is_multi_attribute_weak_fair_clique(graph, report.clique, 1)

    def test_parallel_telemetry_present_for_multi_weak(self):
        graph = graph_with_domain(36, 0.5, 17, 3)
        report = solve(graph, FairCliqueQuery(model="multi_weak", k=1, workers=2))
        assert "parallel" in report.metadata
        assert report.metadata["parallel"]["workers"] == 2
