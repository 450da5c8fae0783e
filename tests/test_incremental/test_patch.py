"""Kernel patching parity: ``patch_kernel`` vs the recompile oracle.

The contract is observational identity: a patched snapshot must match a
fresh ``compile_kernel`` of the mutated graph field for field — ordering,
CSR arrays, adjacency masks, attribute masks, labels — for every mutation
regime (same-index edge churn, vertex insert/delete remaps,
attribute-domain changes, growing from / shrinking to empty), and across
chained patch-of-patch sequences.  ``TestWideRegimes`` repeats the regimes
on a graph wider than the 2048-bit cutover of :mod:`repro.kernel.bitops`,
where the splices and run remaps work on wide masks.
"""

from __future__ import annotations

import random

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import paper_example_graph
from repro.graph.generators import erdos_renyi_graph, uniform_random_graph
from repro.incremental import patch_kernel
from repro.kernel import compile_kernel
from repro.kernel.bitops import _WIDE_MASK_BITS


def assert_same_kernel(patched, fresh) -> None:
    assert patched.n == fresh.n
    assert patched.num_edges == fresh.num_edges
    assert patched.vertex_of == fresh.vertex_of
    assert patched.index_of == fresh.index_of
    assert list(patched.indptr) == list(fresh.indptr)
    assert list(patched.indices) == list(fresh.indices)
    assert patched.degrees == fresh.degrees
    assert patched.attribute_values == fresh.attribute_values
    assert tuple(patched.attr_codes) == tuple(fresh.attr_codes)
    assert patched.labels == fresh.labels
    assert patched.tie_keys == fresh.tie_keys
    assert patched.adj_bits == fresh.adj_bits
    assert patched.attr_masks == fresh.attr_masks
    assert patched.degeneracy_order() == fresh.degeneracy_order()
    assert patched.component_masks() == fresh.component_masks()


def _patched_vs_fresh(graph, mutate):
    """Compile, run ``mutate(graph)`` in one batch, patch, return both kernels."""
    old = compile_kernel(graph)
    base = graph.version
    with graph.mutate() as g:
        mutate(g)
    delta = graph.delta_since(base)
    assert delta is not None, "journal must cover a single batch"
    return patch_kernel(old, graph, delta), compile_kernel(graph)


class TestRegimes:
    def test_edge_churn_same_index(self):
        graph = paper_example_graph()
        graph.compile()
        edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))

        def churn(g):
            u, v = edges[0]
            g.remove_edge(u, v)
            a, b = edges[5]
            g.remove_edge(a, b)
            g.add_edge(u, v)

        assert_same_kernel(*_patched_vs_fresh(graph, churn))

    def test_vertex_insertion_remaps(self):
        graph = paper_example_graph()
        graph.compile()

        def grow(g):
            anchor = sorted(g.vertices(), key=str)[0]
            g.add_vertex("zz_new", "a", "the new one")
            g.add_edge("zz_new", anchor)
            g.add_vertex("aa_first", "b")  # sorts before everything

        assert_same_kernel(*_patched_vs_fresh(graph, grow))

    def test_vertex_removal_remaps(self):
        graph = paper_example_graph()
        graph.compile()

        def shrink(g):
            ordered = sorted(g.vertices(), key=str)
            g.remove_vertex(ordered[2])
            g.remove_vertex(ordered[-1])

        assert_same_kernel(*_patched_vs_fresh(graph, shrink))

    def test_attribute_reset_same_vertices(self):
        graph = paper_example_graph()
        graph.compile()

        def recolor(g):
            a_vertex = next(v for v in g.vertices() if g.attribute(v) == "a")
            g.add_vertex(a_vertex, "b")  # re-add = attribute reset

        assert_same_kernel(*_patched_vs_fresh(graph, recolor))

    def test_shrink_to_empty_and_regrow(self):
        graph = AttributedGraph()
        graph.add_vertex(1, "a")
        graph.add_vertex(2, "b")
        graph.add_edge(1, 2)
        graph.compile()
        assert_same_kernel(*_patched_vs_fresh(
            graph, lambda g: g.remove_vertices([1, 2])))
        assert_same_kernel(*_patched_vs_fresh(
            graph, lambda g: g.add_vertex(3, "a")))

    def test_chained_patches(self):
        graph = erdos_renyi_graph(18, 0.3, seed=4)
        kernel = compile_kernel(graph)
        graph.compile()  # arm the journal
        rng = random.Random(99)
        for _ in range(6):
            base = graph.version
            with graph.mutate() as g:
                verts = sorted(g.vertices(), key=str)
                g.remove_edge(*next(iter(g.edges())))
                u, v = rng.sample(verts, 2)
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v)
            kernel = patch_kernel(kernel, graph, graph.delta_since(base))
            assert_same_kernel(kernel, compile_kernel(graph))


def test_randomized_patch_parity():
    rng = random.Random(2024)
    for trial in range(8):
        graph = erdos_renyi_graph(rng.randint(8, 22), rng.uniform(0.15, 0.45),
                                  seed=300 + trial)
        graph.compile()

        def mutate(g):
            for _ in range(rng.randint(1, 6)):
                verts = sorted(g.vertices(), key=str)
                roll = rng.random()
                if roll < 0.35 and len(verts) >= 2:
                    u, v = rng.sample(verts, 2)
                    if not g.has_edge(u, v):
                        g.add_edge(u, v)
                elif roll < 0.6 and g.num_edges:
                    g.remove_edge(*rng.choice(sorted(
                        g.edges(), key=lambda e: (str(e[0]), str(e[1])))))
                elif roll < 0.8 and verts:
                    g.remove_vertex(rng.choice(verts))
                else:
                    new = f"n{rng.randrange(10_000)}"
                    g.add_vertex(new, rng.choice(("a", "b")))
                    for other in rng.sample(verts, min(len(verts), 2)):
                        g.add_edge(new, other)

        assert_same_kernel(*_patched_vs_fresh(graph, mutate))


def _wide_graph(seed: int = 8):
    graph = uniform_random_graph(2200, 4400, seed=seed)
    assert graph.num_vertices > _WIDE_MASK_BITS
    return graph


def _sorted_edges(graph):
    return sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))


class TestWideRegimes:
    """The regimes above on 2200 vertices: every touched index near or
    beyond bit 2048, and remaps that shift every index above them."""

    def test_edge_churn_same_index(self):
        graph = _wide_graph()
        edges = _sorted_edges(graph)

        def churn(g):
            for u, v in edges[-40:]:
                g.remove_edge(u, v)
            g.add_edge(*edges[-1])
            ordered = sorted(g.vertices(), key=str)
            g.add_edge(ordered[0], ordered[-1])

        assert_same_kernel(*_patched_vs_fresh(graph, churn))

    def test_vertex_insertion_remaps(self):
        graph = _wide_graph()

        def grow(g):
            g.add_vertex(-1, "a")  # "-1" sorts first: every index shifts
            g.add_edge(-1, 2199)
            g.add_vertex("zz_new", "b", "the new one")  # sorts last
            g.add_edge("zz_new", -1)
            g.add_edge("zz_new", 5)

        assert_same_kernel(*_patched_vs_fresh(graph, grow))

    def test_vertex_removal_remaps(self):
        graph = _wide_graph()

        def shrink(g):
            ordered = sorted(g.vertices(), key=str)
            for position in (2, _WIDE_MASK_BITS, len(ordered) - 1):
                g.remove_vertex(ordered[position])

        assert_same_kernel(*_patched_vs_fresh(graph, shrink))

    def test_attribute_reset_same_vertices(self):
        graph = _wide_graph()

        def recolor(g):
            ordered = sorted(g.vertices(), key=str)
            for vertex in ordered[_WIDE_MASK_BITS - 1:_WIDE_MASK_BITS + 2]:
                g.add_vertex(vertex, "b" if g.attribute(vertex) == "a" else "a")
            g.add_vertex(ordered[-1], "c")  # a new attribute value

        assert_same_kernel(*_patched_vs_fresh(graph, recolor))

    def test_chained_patches(self):
        graph = _wide_graph(seed=9)
        kernel = compile_kernel(graph)
        graph.compile()  # arm the journal
        rng = random.Random(7)
        for step in range(4):
            base = graph.version
            with graph.mutate() as g:
                verts = sorted(g.vertices(), key=str)
                g.remove_edge(*rng.choice(_sorted_edges(g)))
                u, v = rng.sample(verts, 2)
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
                if step % 2:
                    g.remove_vertex(rng.choice(verts))
                else:
                    g.add_vertex(f"w{step}", "a")
                    g.add_edge(f"w{step}", rng.choice(verts))
            kernel = patch_kernel(kernel, graph, graph.delta_since(base))
            assert_same_kernel(kernel, compile_kernel(graph))

    def test_randomized_patch_parity(self):
        rng = random.Random(4096)
        for trial in range(3):
            graph = _wide_graph(seed=500 + trial)
            graph.compile()

            def mutate(g):
                for _ in range(rng.randint(5, 30)):
                    verts = sorted(g.vertices(), key=str)
                    roll = rng.random()
                    if roll < 0.35:
                        u, v = rng.sample(verts, 2)
                        if not g.has_edge(u, v):
                            g.add_edge(u, v)
                    elif roll < 0.6:
                        g.remove_edge(*rng.choice(_sorted_edges(g)))
                    elif roll < 0.8:
                        g.remove_vertex(rng.choice(verts))
                    else:
                        new = f"n{rng.randrange(10_000)}"
                        g.add_vertex(new, rng.choice(("a", "b")))
                        for other in rng.sample(verts, 2):
                            g.add_edge(new, other)

            assert_same_kernel(*_patched_vs_fresh(graph, mutate))


class TestCompileHeuristic:
    """graph.compile() patches small touches, recompiles sweeping ones."""

    def test_small_touch_patches(self):
        graph = paper_example_graph()
        graph.compile()
        before = dict(graph.kernel_stats())
        graph.remove_edge(*next(iter(graph.edges())))
        graph.compile()
        after = graph.kernel_stats()
        assert after["patched"] == before["patched"] + 1
        assert after["compiled"] == before["compiled"]
        provenance = graph.kernel_provenance()
        assert provenance["origin"] == "patched"
        assert provenance["deltas"] >= 1

    def test_sweeping_touch_recompiles(self):
        graph = paper_example_graph()
        graph.compile()
        before = dict(graph.kernel_stats())
        with graph.mutate() as g:
            for vertex in list(g.vertices()):
                g.add_vertex(vertex, g.attribute(vertex))  # touch everyone
        graph.compile()
        after = graph.kernel_stats()
        assert after["compiled"] == before["compiled"] + 1
        assert graph.kernel_provenance()["origin"] == "compiled"

    def test_memoized_between_versions(self):
        graph = paper_example_graph()
        first = graph.compile()
        assert graph.compile() is first
