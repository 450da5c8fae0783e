"""ColorfulDegHeur — the colorful-degree-based greedy heuristic (Section V).

Identical growth loop to ``DegHeur`` but vertices are scored by
``min(D_a(v), D_b(v))`` — the minimum over the two attributes of the number of
distinct neighbour colors — which rewards vertices whose neighbourhood can
supply *both* attributes with many mutually non-adjacent-free (distinctly
colored) vertices, a better proxy for fair-clique potential than raw degree.
The scores are :func:`colorful_degree_scores` under the kernel's cached
greedy coloring.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graph.attributed_graph import AttributedGraph
from repro.heuristic.greedy_core import fair_clique_on_graph
from repro.kernel.bitops import bits_list, mask_from_indices_wide
from repro.kernel.compile import GraphKernel
from repro.kernel.cores import min_colorful_degrees_of


def colorful_degree_scores(
    kernel: GraphKernel, colors: Sequence[int], scope: int
) -> list[int]:
    """``D_min`` of every ``scope`` vertex under ``colors``, by kernel index (0 outside)."""
    members = bits_list(scope)
    by_color: dict[int, list[int]] = {}
    for index in members:
        by_color.setdefault(colors[index], []).append(index)
    class_masks = [mask_from_indices_wide(group, kernel.n) for group in by_color.values()]
    minima = min_colorful_degrees_of(
        kernel.adj_bits, members, class_masks, kernel.attr_masks[0]
    )
    scores = [0] * kernel.n
    for index, minimum in zip(members, minima):
        scores[index] = minimum
    return scores


def colorful_degree_greedy_fair_clique(
    graph: AttributedGraph,
    k: int,
    delta: int,
    restarts: int = 1,
) -> frozenset:
    """Return the fair clique found by the colorful-degree greedy (possibly empty)."""
    return fair_clique_on_graph(
        graph, k, delta,
        lambda kernel: colorful_degree_scores(
            kernel, kernel.colorful_cores()[0], kernel.full_mask
        ),
        restarts,
    )
