"""HeurRFC on the kernel against a dict reference of Algorithm 6.

The reference below is the graph-level HeurRFC: it prunes with ``k_core``
and an induced ``graph.subgraph`` copy, colors every working graph with the
dict ``greedy_coloring``, scores with ``min_colorful_degrees`` and
``colorful_core_numbers``, and grows cliques with the set-based loop.  The
kernel implementation must return the identical clique, upper bound and
coloring on every case of the grid, including cases whose core prune shrinks
the working graph.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.coloring.greedy import greedy_coloring, num_colors
from repro.cores.colorful import colorful_core_numbers, min_colorful_degrees
from repro.cores.kcore import k_core
from repro.exceptions import AttributeCountError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import complete_graph
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    quasi_clique_blobs,
    uniform_random_graph,
)
from repro.graph.validation import validate_binary_attributes, validate_parameters
from repro.heuristic.greedy_core import greedy_grow_clique
from repro.heuristic.heur_rfc import HeurRFC
from repro.search.verification import best_fair_subset


def greedy_grow_clique_reference(graph, start, k, delta, score) -> frozenset:
    """The set-based growth loop: the minority attribute first, best score wins."""
    attribute_a, attribute_b = validate_binary_attributes(graph)
    clique = {start}
    candidates = set(graph.neighbors(start))
    counts = {attribute_a: 0, attribute_b: 0}
    counts[graph.attribute(start)] += 1

    while candidates:
        minority = attribute_a if counts[attribute_a] <= counts[attribute_b] else attribute_b
        preferred = [v for v in candidates if graph.attribute(v) == minority]
        pool = preferred or list(candidates)
        if not preferred:
            other = attribute_b if minority == attribute_a else attribute_a
            if counts[other] >= counts[minority] + delta:
                break
        best_vertex = max(pool, key=lambda v: (score(v), str(v)))
        clique.add(best_vertex)
        counts[graph.attribute(best_vertex)] += 1
        candidates = candidates & graph.neighbors(best_vertex)
    return frozenset(clique)


def greedy_fair_clique_reference(graph, k, delta, score, restarts) -> frozenset:
    validate_parameters(k, delta)
    if graph.num_vertices == 0:
        return frozenset()
    starts = sorted(graph.vertices(), key=lambda v: (-score(v), str(v)))[:max(1, restarts)]
    best = frozenset()
    for start in starts:
        grown = greedy_grow_clique_reference(graph, start, k, delta, score)
        fair = best_fair_subset(graph, grown, k, delta)
        if len(fair) > len(best):
            best = fair
    return best


def colorful_degree_reference(graph, k, delta, restarts) -> frozenset:
    if graph.num_vertices == 0:
        return frozenset()
    minima = min_colorful_degrees(graph, greedy_coloring(graph))
    return greedy_fair_clique_reference(
        graph, k, delta, lambda v: minima.get(v, 0), restarts
    )


def colorful_core_reference(graph, k, delta, restarts) -> frozenset:
    if graph.num_vertices == 0:
        return frozenset()
    cores = colorful_core_numbers(graph, greedy_coloring(graph))
    return greedy_fair_clique_reference(
        graph, k, delta, lambda v: cores.get(v, 0), restarts
    )


def heur_rfc_reference(graph, k, delta, restarts):
    """Algorithm 6 on dict graphs: ``(clique, upper_bound, coloring, working)``."""
    validate_parameters(k, delta)

    def core_prune(size):
        if size <= 1:
            return graph
        return graph.subgraph(k_core(graph, size - 1))

    working = graph
    best = greedy_fair_clique_reference(graph, k, delta, graph.degree, restarts)
    if best:
        working = core_prune(len(best))
    for strategy in (colorful_degree_reference, colorful_core_reference):
        challenger = (
            strategy(working, k, delta, restarts) if working.num_vertices else frozenset()
        )
        if len(challenger) > len(best):
            best = challenger
            working = core_prune(len(best))
    coloring = greedy_coloring(working) if working.num_vertices else {}
    return best, num_colors(coloring), coloring, working


def grid_graphs():
    """Community, blobs and powerlaw graphs at six seeds each, plus 40 G(n, p)."""
    graphs = []
    for seed in range(6):
        graphs.append(community_graph(3, 12, intra_probability=0.7, inter_edges=3, seed=seed))
        graphs.append(quasi_clique_blobs(AttributedGraph(), 3, 14, 0.5, seed=seed))
        graphs.append(powerlaw_cluster_graph(60, 3, 0.6, seed=seed))
    for seed in range(40):
        graphs.append(erdos_renyi_graph(20 + seed % 15, 0.25 + 0.05 * (seed % 6), seed=seed))
    return graphs


GRAPHS = grid_graphs()
QUERIES = [(1, 0), (2, 1), (2, 0), (3, 2), (2, 1000)]
RESTARTS = (1, 4)


@cache
def reference_case(graph_index, k, delta, restarts):
    """The reference outcome on one grid case, computed once per session."""
    return heur_rfc_reference(GRAPHS[graph_index], k, delta, restarts)


@pytest.mark.parametrize("graph_index", range(len(GRAPHS)))
def test_kernel_heur_rfc_matches_the_reference(graph_index):
    graph = GRAPHS[graph_index]
    for k, delta in QUERIES:
        for restarts in RESTARTS:
            outcome = HeurRFC(restarts=restarts).run(graph, k, delta)
            clique, upper_bound, coloring, working = reference_case(
                graph_index, k, delta, restarts
            )
            case = (graph_index, k, delta, restarts)
            assert outcome.clique == clique, case
            assert outcome.upper_bound == upper_bound, case
            assert outcome.coloring == coloring, case
            assert set(outcome.pruned_graph.vertices()) == set(working.vertices()), case


def test_a_kernel_wider_than_the_mask_cutover_matches_the_reference():
    """A sparse 2400-vertex background (masks above the 2048-bit cutover of
    :mod:`repro.kernel.bitops`) plus a planted 6 + 4 clique."""
    graph = uniform_random_graph(2400, 6000, seed=3)
    members = [f"z{i}" for i in range(10)]
    for i, vertex in enumerate(members):
        graph.add_vertex(vertex, "a" if i < 6 else "b")
        graph.add_edge(vertex, 7 * i)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            graph.add_edge(u, v)
    assert graph.compile().n > 2048
    for k, delta in ((2, 1), (3, 0)):
        outcome = HeurRFC().run(graph, k, delta)
        clique, upper_bound, coloring, working = heur_rfc_reference(graph, k, delta, 4)
        assert outcome.clique == clique
        assert outcome.upper_bound == upper_bound
        assert outcome.coloring == coloring
        assert len(coloring) < graph.num_vertices
        assert set(outcome.pruned_graph.vertices()) == set(working.vertices())


def test_the_grid_covers_a_shrinking_core_prune():
    """Some cases prune the working graph, so the scoped path is compared too."""
    shrunk = [
        (graph_index, k, delta, restarts)
        for graph_index, graph in enumerate(GRAPHS)
        for k, delta in QUERIES
        for restarts in RESTARTS
        if reference_case(graph_index, k, delta, restarts)[3].num_vertices
        < graph.num_vertices
    ]
    assert shrunk


@pytest.mark.parametrize("graph_index", range(6))
def test_growth_loop_identical(graph_index):
    """The graph-level growth wrapper against the set-based loop, on every
    tenth grid graph (community, blobs and four G(n, p))."""
    graph = GRAPHS[10 * graph_index]
    for start in sorted(graph.vertices(), key=str)[:6]:
        grown = greedy_grow_clique(graph, start, 2, 1, graph.degree)
        reference = greedy_grow_clique_reference(graph, start, 2, 1, graph.degree)
        assert grown == reference


def test_run_on_a_compiled_graph_compiles_nothing(count_compiles):
    shrinking = 0
    for graph in GRAPHS[:18]:
        graph.compile()
        count_compiles.clear()
        for k, delta in QUERIES:
            outcome = HeurRFC().run(graph, k, delta)
            shrinking += len(outcome.coloring) < graph.num_vertices
        assert count_compiles == []
    assert shrinking > 0


def test_empty_graph_gives_the_empty_outcome():
    outcome = HeurRFC().run(AttributedGraph(), 2, 1)
    assert outcome.clique == frozenset()
    assert outcome.upper_bound == 0
    assert outcome.coloring == {}
    assert outcome.pruned_graph.num_vertices == 0


def test_three_valued_graph_raises():
    graph = complete_graph({0: "a", 1: "b", 2: "c", 3: "a"})
    with pytest.raises(AttributeCountError):
        HeurRFC().run(graph, 1, 0)
