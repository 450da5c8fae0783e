"""Structural tests for the compiled kernel: CSR/bitset consistency,
index <-> id round-tripping, the freeze/compile cache, materialisation, and
the wide-mask paths of :mod:`repro.kernel.bitops`."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import from_edge_list, paper_example_graph
from repro.graph.components import connected_components
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    uniform_random_graph,
)
from repro.kernel import (
    bits_list,
    compile_kernel,
    iter_bits,
    mask_above,
    mask_from_indices,
)
from repro.kernel.bitops import _WIDE_MASK_BITS


def random_graphs():
    """A small zoo of deterministic random graphs for property tests."""
    graphs = [paper_example_graph()]
    for seed in range(5):
        graphs.append(erdos_renyi_graph(30, 0.3, seed=seed))
    graphs.append(community_graph(3, 8, intra_probability=0.8, inter_edges=2, seed=11))
    graphs.append(from_edge_list([("x", "y"), ("y", 3)], {"x": "a", "y": "b", 3: "a"}))
    return graphs


class TestBitops:
    def test_iter_bits_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            indices = sorted(rng.sample(range(200), rng.randint(0, 40)))
            mask = mask_from_indices(indices)
            assert bits_list(mask) == indices
            assert list(iter_bits(mask)) == indices
            assert mask.bit_count() == len(indices)

    def test_mask_above(self):
        mask = mask_from_indices([0, 3, 5, 9])
        assert bits_list(mask & mask_above(3)) == [5, 9]
        assert bits_list(mask & mask_above(9)) == []
        assert bits_list(mask & mask_above(-1)) == [0, 3, 5, 9]


class TestSparseBitops:
    """The wide-mask fast path must agree exactly with the classic loop."""

    def _reference(self, mask: int) -> list[int]:
        positions = []
        while mask:
            low = mask & -mask
            positions.append(low.bit_length() - 1)
            mask ^= low
        return positions

    @pytest.mark.parametrize("universe", [100, 4_000, 200_000])
    def test_random_masks(self, universe):
        rng = random.Random(universe)
        for density in (1, 3, 50, 500):
            population = min(density, universe)
            mask = mask_from_indices(
                rng.sample(range(universe), population)
            )
            expected = self._reference(mask)
            assert bits_list(mask) == expected
            assert list(iter_bits(mask)) == expected

    def test_cutoff_boundary(self):
        # One bit on each side of the small/wide switch-over.
        for position in (
            _WIDE_MASK_BITS - 1,
            _WIDE_MASK_BITS,
            _WIDE_MASK_BITS + 1,
        ):
            mask = (1 << position) | 1
            assert bits_list(mask) == [0, position]
            assert list(iter_bits(mask)) == [0, position]

    def test_empty_and_dense(self):
        assert bits_list(0) == []
        assert list(iter_bits(0)) == []
        wide = (1 << (_WIDE_MASK_BITS * 3)) - 1
        assert bits_list(wide) == list(range(_WIDE_MASK_BITS * 3))

    def test_sparse_scan_skips_zero_words(self):
        # A 3-bit mask over a 200k universe.
        mask = (1 << 199_999) | (1 << 64_001) | 1
        assert bits_list(mask) == [0, 64_001, 199_999]
        assert list(iter_bits(mask)) == [0, 64_001, 199_999]


class TestCompile:
    @pytest.mark.parametrize("graph_index", range(8))
    def test_csr_bitset_consistency(self, graph_index):
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        assert kernel.n == graph.num_vertices
        assert kernel.num_edges == graph.num_edges
        for index in range(kernel.n):
            csr = kernel.neighbors_csr(index)
            # CSR slice sorted + duplicate-free, bitset agrees exactly.
            assert csr == sorted(set(csr))
            assert bits_list(kernel.adj_bits[index]) == csr
            assert kernel.degrees[index] == len(csr)
            # No self loops in either representation.
            assert index not in csr

    @pytest.mark.parametrize("graph_index", range(8))
    def test_index_id_round_trip(self, graph_index):
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        for vertex in graph.vertices():
            index = kernel.index_of[vertex]
            assert kernel.vertex_of[index] == vertex
            assert kernel.attribute_of(index) == graph.attribute(vertex)
        # Every index maps back to a unique vertex.
        assert len(set(kernel.vertex_of)) == kernel.n
        # Mask translation round-trips arbitrary subsets.
        rng = random.Random(graph_index)
        vertices = list(graph.vertices())
        for _ in range(5):
            subset = frozenset(rng.sample(vertices, rng.randint(0, len(vertices))))
            assert kernel.frozenset_of_mask(kernel.mask_of(subset)) == subset

    @pytest.mark.parametrize("graph_index", range(8))
    def test_adjacency_matches_graph(self, graph_index):
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        for u in graph.vertices():
            expected = {kernel.index_of[v] for v in graph.neighbors(u)}
            assert set(bits_list(kernel.adj_bits[kernel.index_of[u]])) == expected

    @pytest.mark.parametrize("graph_index", range(8))
    def test_attribute_masks_partition_vertices(self, graph_index):
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        union = 0
        for code, mask in enumerate(kernel.attr_masks):
            assert union & mask == 0  # masks are disjoint
            union |= mask
            for index in bits_list(mask):
                assert kernel.attr_codes[index] == code
        assert union == kernel.full_mask

    @pytest.mark.parametrize("graph_index", range(8))
    def test_component_masks_match_connected_components(self, graph_index):
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        masks = kernel.component_masks()
        union = 0
        for mask in masks:
            assert mask and union & mask == 0  # non-empty, disjoint
            union |= mask
        assert union == kernel.full_mask
        # Ordered by lowest member index, and cached.
        lowest = [(mask & -mask).bit_length() for mask in masks]
        assert lowest == sorted(lowest)
        assert kernel.component_masks() is masks
        expected = {frozenset(c) for c in connected_components(graph)}
        got = [kernel.frozenset_of_mask(mask) for mask in masks]
        assert len(got) == len(expected)
        assert set(got) == expected

    @pytest.mark.parametrize("graph_index", range(8))
    def test_pickle_round_trip_is_field_identical(self, graph_index):
        """A kernel shipped by pickle (workers without ``fork``) is the same
        snapshot, its lazily computed caches included."""
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        kernel.degeneracy_order()
        kernel.component_masks()
        kernel.colorful_cores()
        clone = pickle.loads(pickle.dumps(kernel))
        assert type(clone) is type(kernel)
        for slot in type(kernel).__slots__:
            assert getattr(clone, slot) == getattr(kernel, slot), slot
        vertices = sorted(graph.vertices(), key=str)[::2]
        assert clone.mask_of(vertices) == kernel.mask_of(vertices)
        # A cold kernel ships with its caches empty and fills them the same.
        cold = pickle.loads(pickle.dumps(compile_kernel(graph)))
        assert cold._component_masks is None
        assert cold._colorful_cores is None
        assert cold.component_masks() == kernel.component_masks()
        assert cold.core_numbers() == kernel.core_numbers()
        assert cold.colorful_cores() == kernel.colorful_cores()

    @pytest.mark.parametrize("graph_index", range(8))
    def test_insertion_order_does_not_change_the_kernel(
        self, graph_index, shuffled_rebuild
    ):
        graph = random_graphs()[graph_index]
        kernel = compile_kernel(graph)
        for seed in range(3):
            other = compile_kernel(shuffled_rebuild(graph, seed))
            for slot in type(kernel).__slots__:
                if not slot.startswith("_"):
                    assert getattr(other, slot) == getattr(kernel, slot), slot
            assert other.degeneracy_order() == kernel.degeneracy_order()
            assert other.component_masks() == kernel.component_masks()

    def test_degeneracy_order_is_a_permutation(self):
        graph = erdos_renyi_graph(40, 0.25, seed=3)
        kernel = compile_kernel(graph)
        order = kernel.degeneracy_order()
        assert sorted(order) == list(range(kernel.n))
        from repro.cores.kcore import core_numbers

        expected = core_numbers(graph)
        got = kernel.core_numbers()
        assert {v: got[kernel.index_of[v]] for v in graph.vertices()} == expected
        assert kernel.degeneracy() == max(expected.values(), default=0)


class TestFreezeBoundary:
    def test_compile_is_cached_until_mutation(self):
        graph = paper_example_graph()
        kernel = graph.compile()
        assert graph.compile() is kernel
        assert graph.freeze() is kernel
        graph.add_vertex("new", "a")
        recompiled = graph.compile()
        assert recompiled is not kernel
        assert recompiled.n == kernel.n + 1

    def test_every_mutation_invalidates(self):
        graph = from_edge_list([(1, 2), (2, 3)], {1: "a", 2: "b", 3: "a"})
        snapshots = [graph.compile()]
        graph.add_vertex(4, "b")
        snapshots.append(graph.compile())
        graph.add_edge(3, 4)
        snapshots.append(graph.compile())
        graph.remove_edge(1, 2)
        snapshots.append(graph.compile())
        graph.remove_vertex(2)
        snapshots.append(graph.compile())
        assert len({id(s) for s in snapshots}) == len(snapshots)

    def test_frozen_kernel_does_not_track_source(self):
        graph = paper_example_graph()
        kernel = graph.compile()
        n_before = kernel.n
        graph.add_vertex("later", "b")
        assert kernel.n == n_before  # the old snapshot is immutable

    def test_pickle_drops_kernel_cache(self):
        graph = paper_example_graph()
        graph.compile()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.num_vertices == graph.num_vertices
        assert clone.num_edges == graph.num_edges
        # And the clone can compile its own kernel from scratch.
        assert clone.compile().n == graph.compile().n


class TestMaterialize:
    @pytest.mark.parametrize("graph_index", range(8))
    def test_full_round_trip(self, graph_index):
        graph = random_graphs()[graph_index]
        back = compile_kernel(graph).materialize()
        assert back.num_vertices == graph.num_vertices
        assert back.num_edges == graph.num_edges
        for vertex in graph.vertices():
            assert back.attribute(vertex) == graph.attribute(vertex)
            assert set(back.neighbors(vertex)) == set(graph.neighbors(vertex))
            assert back.label(vertex) == graph.label(vertex)

    def test_masked_round_trip_matches_subgraph(self):
        graph = erdos_renyi_graph(25, 0.35, seed=9)
        kernel = compile_kernel(graph)
        rng = random.Random(1)
        vertices = list(graph.vertices())
        for _ in range(5):
            keep = rng.sample(vertices, 12)
            via_kernel = kernel.materialize(kernel.mask_of(keep))
            via_graph = graph.subgraph(keep)
            assert set(via_kernel.vertices()) == set(via_graph.vertices())
            assert via_kernel.num_edges == via_graph.num_edges
            for vertex in keep:
                assert set(via_kernel.neighbors(vertex)) == set(via_graph.neighbors(vertex))

    def test_labels_survive_compilation(self):
        graph = AttributedGraph()
        graph.add_vertex(1, "a", label="Alice")
        graph.add_vertex(2, "b", label="Bob")
        graph.add_vertex(3, "a")
        graph.add_edge(1, 2)
        back = graph.compile().materialize()
        assert back.label(1) == "Alice"
        assert back.label(2) == "Bob"
        assert back.label(3) == "3"


def _same_kernel(patched, fresh) -> None:
    for field in ("n", "num_edges", "vertex_of", "index_of", "indptr",
                  "indices", "adj_bits", "degrees", "attribute_values",
                  "attr_codes", "attr_masks", "labels", "tie_keys"):
        assert getattr(patched, field) == getattr(fresh, field), field
    assert patched.component_masks() == fresh.component_masks()


def _wide_graph():
    return uniform_random_graph(
        3000, 9000, seed=5, assigner=lambda rng, v: "abc"[v % 3]
    )


def _wide_planted_graph():
    """A sparse 2400-vertex background plus a 6+3 clique whose string ids
    sort after every integer id, so it lives above the 2048-bit cutover."""
    graph = uniform_random_graph(2400, 6000, seed=3)
    members = [f"z{i}" for i in range(9)]
    for i, vertex in enumerate(members):
        graph.add_vertex(vertex, "a" if i < 6 else "b")
        graph.add_edge(vertex, 7 * i)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            graph.add_edge(u, v)
    return graph


class TestWideUniverse:
    """A whole graph above the 2048-bit cutover of :mod:`repro.kernel.bitops`:
    compile, components, ``mask_of`` and delta patching on wide masks."""

    def test_wide_kernel_matches_the_graph(self):
        graph = _wide_graph()
        kernel = graph.compile()
        n = kernel.n
        assert n > _WIDE_MASK_BITS
        index_of = kernel.index_of
        for index, vertex in enumerate(kernel.vertex_of):
            expected = mask_from_indices(index_of[u] for u in graph.neighbors(vertex))
            assert kernel.adj_bits[index] == expected

        assert len(kernel.attr_masks) == 3
        union = 0
        for mask in kernel.attr_masks:
            assert union & mask == 0
            union |= mask
        assert union == kernel.full_mask

        expected_components = {
            frozenset(component) for component in connected_components(graph)
        }
        got = [kernel.frozenset_of_mask(mask) for mask in kernel.component_masks()]
        assert len(got) == len(expected_components)
        assert set(got) == expected_components

        rng = random.Random(5)
        vertices = list(graph.vertices())
        for size in (0, 1, 40, n // 2):
            subset = rng.sample(vertices, size)
            assert kernel.mask_of(subset) == mask_from_indices(
                index_of[v] for v in subset
            )

        # Edge churn keeps the ordering (same-index splice); inserting and
        # deleting vertices shifts it (run remap).  Both touch < n/2 vertices.
        with graph.mutate() as g:
            for u, v in rng.sample(sorted(g.edges()), 60):
                g.remove_edge(u, v)
            for _ in range(60):
                u, v = rng.sample(vertices, 2)
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
        _same_kernel(graph.compile(), compile_kernel(graph))
        assert graph.kernel_stats() == {"compiled": 1, "patched": 1}

        with graph.mutate() as g:
            g.add_vertex(3000, "a")
            g.add_edge(3000, 7)
            g.remove_vertex(1500)
        _same_kernel(graph.compile(), compile_kernel(graph))
        assert graph.kernel_stats() == {"compiled": 1, "patched": 2}

    def test_wide_core_numbers_match_the_reference(self):
        from repro.cores.kcore import core_numbers

        graph = _wide_graph()
        kernel = graph.compile()
        expected = core_numbers(graph)
        got = kernel.core_numbers()
        assert {v: got[kernel.index_of[v]] for v in graph.vertices()} == expected
        assert sorted(kernel.degeneracy_order()) == list(range(kernel.n))

    def test_wide_materialize_round_trip(self):
        graph = _wide_graph()
        kernel = graph.compile()
        # Every kept index lies above the 2048-bit cutover.
        keep = [kernel.vertex_of[i] for i in range(_WIDE_MASK_BITS + 1, kernel.n)]
        via_kernel = kernel.materialize(kernel.mask_of(keep))
        via_graph = graph.subgraph(keep)
        assert set(via_kernel.vertices()) == set(via_graph.vertices())
        assert via_kernel.num_edges == via_graph.num_edges
        for vertex in keep:
            assert via_kernel.attribute(vertex) == graph.attribute(vertex)
            assert set(via_kernel.neighbors(vertex)) == set(via_graph.neighbors(vertex))

    @pytest.mark.parametrize("use_reduction", [True, False],
                             ids=["reduced", "unreduced"])
    @pytest.mark.parametrize("model", ["relative", "weak", "strong", "multi_weak"])
    def test_wide_solve_matches_the_oracle(self, model, use_reduction, oracle):
        """Exact solves on a kernel wider than 2048 bits: the reductions peel
        it, or, unreduced, the branch-and-bound runs on the wide masks."""
        graph = _wide_planted_graph()
        kernel = graph.compile()
        assert kernel.n > _WIDE_MASK_BITS
        assert kernel.index_of["z0"] > _WIDE_MASK_BITS
        delta = 1 if model == "relative" else None
        report = repro.solve(graph, model=model, k=2, delta=delta,
                             options={"use_reduction": use_reduction})
        oracle.check(graph, report, model, 2, delta, label="wide")
        # Of the 6 + 3 planted, relative (gap 1) keeps 4 + 3, strong 3 + 3.
        assert report.size == {"relative": 7, "strong": 6}.get(model, 9)
        assert all(str(v).startswith("z") for v in report.clique)


def _cache_graphs():
    return [*random_graphs(), _wide_graph()]


class TestColorfulCoresCache:
    """``GraphKernel.colorful_cores()``: one whole-kernel coloring and colorful
    core decomposition that equals the per-component computation, read by
    CalColorOD and HeurRFC."""

    @pytest.mark.parametrize("graph_index", range(9))
    def test_equals_a_pass_scoped_to_each_component(self, graph_index):
        from repro.kernel.coloring import greedy_color_array
        from repro.kernel.cores import colorful_core_numbers_mask

        kernel = compile_kernel(_cache_graphs()[graph_index])
        colors, cores = kernel.colorful_cores()
        assert kernel.colorful_cores() is kernel.colorful_cores()
        assert len(colors) == len(cores) == kernel.n
        for mask in kernel.component_masks():
            scoped = greedy_color_array(kernel, mask)
            scoped_cores = colorful_core_numbers_mask(kernel, scoped, mask)
            for index in bits_list(mask):
                assert colors[index] == scoped[index]
                assert cores[index] == scoped_cores[index]

    @pytest.mark.parametrize("graph_index", range(9))
    def test_order_matches_the_dict_ordering(self, graph_index):
        from repro.kernel.cores import colorful_core_order
        from repro.search.ordering import colorful_core_ordering

        graph = _cache_graphs()[graph_index]
        kernel = compile_kernel(graph)
        for mask in kernel.component_masks():
            members = kernel.vertices_of_mask(mask)
            rank = colorful_core_ordering(graph, members)
            assert colorful_core_order(kernel, mask) == sorted(members, key=rank.get)

    def test_a_patched_kernel_starts_with_the_cache_empty(self):
        graph = community_graph(3, 8, intra_probability=0.8, inter_edges=2, seed=11)
        old = graph.compile()
        old.colorful_cores()
        graph.add_edge(0, 23)
        patched = graph.compile()
        assert graph.kernel_stats()["patched"] == 1
        assert patched._colorful_cores is None
        fresh = compile_kernel(graph)
        assert patched.colorful_cores() == fresh.colorful_cores()

    @pytest.mark.parametrize("graph_index", range(7))
    def test_prefilled_and_empty_caches_search_identically(self, graph_index):
        """Serial and workers=2 solves report the same counters whether the
        cache was filled before the solve or is computed during it."""
        from repro.models import make_model
        from repro.parallel import ParallelMaxRFC
        from repro.search.maxrfc import MaxRFC, build_search_config

        source = random_graphs()[graph_index]
        config = build_search_config(use_reduction=False, use_heuristic=False)
        counters = set()
        for prefill in (False, True):
            for solver in (MaxRFC(config), ParallelMaxRFC(config, workers=2)):
                graph = source.copy()
                if prefill:
                    graph.compile().colorful_cores()
                result = solver.solve_model(graph, make_model("relative", 2, 1, graph))
                stats = result.stats
                counters.add((
                    result.size, stats.branches_explored,
                    stats.bound_evaluations, stats.pruned_by_bound,
                ))
        assert len(counters) == 1


class TestStorage:
    def test_storage_stamp_names_int_only(self):
        """Benchmark environment stamps name the one storage."""
        from repro.kernel.backend import available_backends, resolve_backend

        assert available_backends() == ("int",)
        assert resolve_backend() == "int"
        kernel = paper_example_graph().compile()
        assert all(type(row) is int for row in kernel.adj_bits)
        assert all(type(mask) is int for mask in kernel.attr_masks)

    def test_stale_storage_env_var_is_ignored(self, monkeypatch):
        """A leftover storage variable (an unknown value used to be a loud
        error) changes nothing: the kernel and the answer stay the same."""
        graph = paper_example_graph()
        reference = compile_kernel(graph)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "turbo")
        kernel = graph.compile()
        _same_kernel(kernel, reference)
        assert repro.solve(graph, model="relative", k=3, delta=1).size == 7


def test_numpy_stays_unloaded():
    """Importing, compiling and solving never import numpy."""
    script = (
        "import sys\n"
        "from repro import solve\n"
        "from repro.graph.builders import paper_example_graph\n"
        "graph = paper_example_graph()\n"
        "graph.compile()\n"
        "assert solve(graph, model='relative', k=3, delta=1).size == 7\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
