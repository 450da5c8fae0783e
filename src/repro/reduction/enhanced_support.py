"""EnColorfulSup — the enhanced colorful-support-based edge reduction (Lemma 4).

``ColorfulSup`` counts a color once per attribute even when the same color
appears on both attribute-``a`` and attribute-``b`` common neighbours of an
edge — but inside a clique each color can be used by at most one vertex, so
that color can serve only one attribute.  The *enhanced colorful support*
(Definition 7) fixes this by partitioning the common-neighbour colors of an
edge into three groups —

* ``Group a``  : colors used only by attribute-``a`` common neighbours,
* ``Group b``  : colors used only by attribute-``b`` common neighbours,
* ``Mixed``    : colors used by both,

— and assigning each mixed color to exactly one attribute, favouring whichever
attribute still falls short of its demand.  An edge survives only if some
assignment can meet both demands simultaneously, i.e.

``c_a + c_m >= need_a``,  ``c_b + c_m >= need_b``  and
``c_a + c_b + c_m >= need_a + need_b``

where the demands are those of Lemma 3 / Lemma 4 (``k-2``/``k`` for same-
attribute endpoints, ``k-1``/``k-1`` for mixed endpoints).
"""

from __future__ import annotations

from repro.coloring.greedy import Coloring, greedy_coloring
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.validation import validate_binary_attributes, validate_parameters
from repro.reduction.colorful_support import (
    EdgeKey,
    _kernel_support_reduction,
    edge_key,
    support_thresholds,
)
from repro.reduction.core_reduction import ReductionResult


def enhanced_supports_for_groups(
    count_a: int,
    count_b: int,
    count_mixed: int,
    need_a: int,
    need_b: int,
) -> tuple[int, int]:
    """Compute ``(gsup_a, gsup_b)`` with the paper's greedy mixed-color assignment.

    Attribute ``a`` is topped up first from the mixed group (taking only what
    it is short of), then attribute ``b`` takes from whatever mixed colors
    remain — exactly the procedure described under Definition 7.
    """
    if count_a >= need_a:
        gsup_a = count_a
        taken = 0
    else:
        taken = min(need_a - count_a, count_mixed)
        gsup_a = count_a + taken
    leftover = count_mixed - taken
    if count_b >= need_b:
        gsup_b = count_b
    else:
        gsup_b = count_b + min(need_b - count_b, leftover)
    return gsup_a, gsup_b


def edge_satisfies_enhanced_support(
    count_a: int,
    count_b: int,
    count_mixed: int,
    need_a: int,
    need_b: int,
) -> bool:
    """Return True if *some* assignment of mixed colors can satisfy both demands."""
    gsup_a, gsup_b = enhanced_supports_for_groups(count_a, count_b, count_mixed, need_a, need_b)
    return gsup_a >= need_a and gsup_b >= need_b


def enhanced_colorful_supports(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
) -> dict[EdgeKey, tuple[int, int]]:
    """Compute ``(gsup_a, gsup_b)`` for every edge (diagnostic helper, Definition 7)."""
    validate_parameters(k, 0)
    attribute_a, attribute_b = validate_binary_attributes(graph)
    if coloring is None:
        coloring = greedy_coloring(graph)
    result: dict[EdgeKey, tuple[int, int]] = {}
    for u, v in graph.edges():
        colors_a: set[int] = set()
        colors_b: set[int] = set()
        for w in graph.common_neighbors(u, v):
            if graph.attribute(w) == attribute_a:
                colors_a.add(coloring[w])
            else:
                colors_b.add(coloring[w])
        mixed = colors_a & colors_b
        need_a, need_b = support_thresholds(
            graph.attribute(u), graph.attribute(v), attribute_a, k
        )
        result[edge_key(u, v)] = enhanced_supports_for_groups(
            len(colors_a - mixed), len(colors_b - mixed), len(mixed), need_a, need_b
        )
    return result


def enhanced_colorful_support_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
) -> ReductionResult:
    """Run the EnColorfulSup edge-peeling reduction (Lemma 4).

    Identical peeling skeleton to :func:`colorful_support_reduction` but the
    survival test uses enhanced colorful support, which is never larger than
    the plain colorful support and therefore peels at least as many edges.
    """
    validate_parameters(k, 0)
    validate_binary_attributes(graph)
    return _kernel_support_reduction(graph, k, coloring, enhanced=True)
