"""ColorfulSup — the colorful-support-based edge reduction (Algorithm 1, Lemma 3).

The *colorful support* of an edge ``(u, v)`` for attribute ``a_i`` is the
number of distinct colors among the common neighbours of ``u`` and ``v`` whose
attribute is ``a_i`` (Definition 6).  Any edge inside a relative fair clique of
parameter ``k`` must satisfy, depending on its endpoint attributes:

==========================  =====================  =====================
endpoints                   required ``sup_a``      required ``sup_b``
==========================  =====================  =====================
both attribute ``a``        ``k - 2``              ``k``
both attribute ``b``        ``k``                  ``k - 2``
one of each                 ``k - 1``              ``k - 1``
==========================  =====================  =====================

``colorful_support_reduction`` peels edges that violate these thresholds in a
truss-decomposition style: removing an edge destroys the triangles through it,
which lowers the colorful support of the other two triangle edges, which may
trigger further removals, and so on to a fixed point.  The remaining graph is
the maximal subgraph of Lemma 3 and therefore still contains every relative
fair clique of the input.
"""

from __future__ import annotations

from repro.coloring.greedy import Coloring, greedy_coloring
from repro.graph.attributed_graph import AttributedGraph, Vertex
from repro.graph.validation import validate_binary_attributes, validate_parameters
from repro.reduction.core_reduction import ReductionResult

EdgeKey = tuple[Vertex, Vertex]


def edge_key(u: Vertex, v: Vertex) -> EdgeKey:
    """Return a canonical (order-independent) dictionary key for edge ``(u, v)``."""
    return (u, v) if str(u) <= str(v) else (v, u)


def support_thresholds(
    attribute_u: str,
    attribute_v: str,
    attribute_a: str,
    k: int,
) -> tuple[int, int]:
    """Return the ``(required sup_a, required sup_b)`` thresholds of Lemma 3.

    Negative thresholds (possible for ``k < 2``) are clamped to zero since a
    support count can never be negative and the condition is then vacuous.
    """
    if attribute_u == attribute_v:
        if attribute_u == attribute_a:
            need_a, need_b = k - 2, k
        else:
            need_a, need_b = k, k - 2
    else:
        need_a, need_b = k - 1, k - 1
    return max(need_a, 0), max(need_b, 0)


def colorful_supports(
    graph: AttributedGraph,
    coloring: Coloring | None = None,
) -> dict[EdgeKey, dict[str, int]]:
    """Compute ``sup_a`` and ``sup_b`` for every edge of ``graph`` (Definition 6).

    A diagnostic and the test reference.  The kernel peel
    (:func:`repro.kernel.reduce.support_peel`) never counts colors: it keeps
    only ``need`` witness colors per edge and side, enough to decide the
    Lemma 3 thresholds.
    """
    attribute_a, attribute_b = validate_binary_attributes(graph)
    if coloring is None:
        coloring = greedy_coloring(graph)
    supports: dict[EdgeKey, dict[str, int]] = {}
    for u, v in graph.edges():
        colors: dict[str, set[int]] = {attribute_a: set(), attribute_b: set()}
        for w in graph.common_neighbors(u, v):
            colors[graph.attribute(w)].add(coloring[w])
        supports[edge_key(u, v)] = {
            attribute_a: len(colors[attribute_a]),
            attribute_b: len(colors[attribute_b]),
        }
    return supports


def colorful_support_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
) -> ReductionResult:
    """Run the ColorfulSup edge-peeling reduction (Algorithm 1).

    Returns a :class:`ReductionResult` whose graph is the maximal subgraph of
    Lemma 3 with isolated vertices dropped.  The input graph is not modified.
    """
    validate_parameters(k, 0)
    validate_binary_attributes(graph)
    return _kernel_support_reduction(graph, k, coloring, enhanced=False)


def _kernel_support_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None,
    enhanced: bool,
) -> ReductionResult:
    """Shared kernel peel of ColorfulSup / EnColorfulSup.

    Compiles the frozen snapshot, peels on bitset adjacency, and
    materialises the surviving (isolated-vertex-free) subgraph back into an
    :class:`AttributedGraph` for the next pipeline stage.
    """
    from repro.kernel import (
        coloring_to_array,
        greedy_color_array,
        support_peel,
        survivors_mask,
    )

    kernel = graph.compile()
    if coloring is None:
        colors = greedy_color_array(kernel)
    else:
        colors = coloring_to_array(kernel, coloring)
    adjacency, edges_peeled = support_peel(kernel, k, colors, enhanced)
    reduced = kernel.materialize(survivors_mask(adjacency), adjacency)
    return ReductionResult(
        name="EnColorfulSup" if enhanced else "ColorfulSup",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
        extra={"edges_peeled": edges_peeled},
    )
