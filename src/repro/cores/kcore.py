"""Classic k-core decomposition, degeneracy, and graph h-index.

The plain (uncolored) k-core machinery serves three purposes in the paper:

* the degeneracy-based upper bound ``ub_△`` (Lemma 10) and the h-index-based
  upper bound ``ub_h`` (Lemma 11);
* the ``(|R*| - 1)``-core pruning step inside the heuristic framework
  ``HeurRFC`` (Algorithm 6, lines 3 and 8), which reads the same core
  numbers off the compiled kernel and keeps this module as its test
  reference;
* the degeneracy ordering reused by coloring and baseline clique algorithms.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.attributed_graph import AttributedGraph, Vertex


def core_numbers(graph: AttributedGraph,
                 vertices: Iterable[Vertex] | None = None) -> dict[Vertex, int]:
    """Compute the core number of every vertex with bucket-queue peeling.

    The core number of ``v`` is the largest ``k`` such that ``v`` belongs to a
    subgraph in which every vertex has degree at least ``k``.  Runs in
    O(|V| + |E|) time on the induced subgraph of ``vertices``.
    """
    scope = set(graph.vertices()) if vertices is None else set(vertices)
    degrees = {v: sum(1 for u in graph.neighbors(v) if u in scope) for v in scope}
    if not scope:
        return {}
    max_degree = max(degrees.values())
    buckets: list[set[Vertex]] = [set() for _ in range(max_degree + 1)]
    for vertex, degree in degrees.items():
        buckets[degree].add(vertex)
    cores: dict[Vertex, int] = {}
    remaining = set(scope)
    current = 0
    while remaining:
        while current <= max_degree and not buckets[current]:
            current += 1
        if current > max_degree:
            break
        vertex = buckets[current].pop()
        remaining.discard(vertex)
        cores[vertex] = current
        for neighbor in graph.neighbors(vertex):
            if neighbor in remaining:
                degree = degrees[neighbor]
                if degree > current:
                    buckets[degree].discard(neighbor)
                    degrees[neighbor] = degree - 1
                    buckets[degree - 1].add(neighbor)
    return cores


def degeneracy(graph: AttributedGraph, vertices: Iterable[Vertex] | None = None) -> int:
    """Return the degeneracy (maximum core number) of the graph or induced subgraph."""
    cores = core_numbers(graph, vertices)
    return max(cores.values(), default=0)


def degeneracy_ordering(graph: AttributedGraph,
                        vertices: Iterable[Vertex] | None = None) -> list[Vertex]:
    """Return vertices in the peeling (smallest-degree-first) removal order."""
    scope = set(graph.vertices()) if vertices is None else set(vertices)
    degrees = {v: sum(1 for u in graph.neighbors(v) if u in scope) for v in scope}
    order: list[Vertex] = []
    if not scope:
        return order
    max_degree = max(degrees.values())
    buckets: list[set[Vertex]] = [set() for _ in range(max_degree + 1)]
    for vertex, degree in degrees.items():
        buckets[degree].add(vertex)
    remaining = set(scope)
    current = 0
    while remaining:
        while current <= max_degree and not buckets[current]:
            current += 1
        if current > max_degree:
            break
        vertex = min(buckets[current], key=str)
        buckets[current].discard(vertex)
        remaining.discard(vertex)
        order.append(vertex)
        for neighbor in graph.neighbors(vertex):
            if neighbor in remaining:
                degree = degrees[neighbor]
                if degree > 0:
                    buckets[degree].discard(neighbor)
                    degrees[neighbor] = degree - 1
                    buckets[degree - 1].add(neighbor)
                    if degree - 1 < current:
                        current = degree - 1
    return order


def k_core(graph: AttributedGraph, k: int,
           vertices: Iterable[Vertex] | None = None) -> set[Vertex]:
    """Return the vertex set of the k-core (possibly empty)."""
    cores = core_numbers(graph, vertices)
    return {v for v, core in cores.items() if core >= k}


def k_core_subgraph(graph: AttributedGraph, k: int) -> AttributedGraph:
    """Return the k-core as an induced :class:`AttributedGraph`."""
    return graph.subgraph(k_core(graph, k))


def graph_h_index(graph: AttributedGraph,
                  vertices: Iterable[Vertex] | None = None) -> int:
    """Return the h-index of the graph: the largest ``h`` with ``h`` vertices of degree >= ``h``.

    Degrees are taken inside the induced subgraph of ``vertices`` when given.
    """
    scope = set(graph.vertices()) if vertices is None else set(vertices)
    degrees = sorted(
        (sum(1 for u in graph.neighbors(v) if u in scope) for v in scope),
        reverse=True,
    )
    h = 0
    for index, degree in enumerate(degrees, start=1):
        if degree >= index:
            h = index
        else:
            break
    return h


def h_index_of_values(values: Iterable[int]) -> int:
    """Return the h-index of an arbitrary sequence of non-negative integers."""
    ordered = sorted(values, reverse=True)
    h = 0
    for index, value in enumerate(ordered, start=1):
        if value >= index:
            h = index
        else:
            break
    return h
