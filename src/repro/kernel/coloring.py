"""Greedy coloring on the compiled kernel.

Reproduces :func:`repro.coloring.greedy.greedy_coloring` with the paper's
default degree ordering *exactly* — same vertex order (non-increasing
full-graph degree, ties by ``str(id)``), same smallest-free-color rule — so
the kernel-based reductions and bounds see the same colors as the dict-based
implementations and the two code paths stay result-identical.  The only
difference is the representation: colors live in a flat array indexed by
kernel index and neighbour scans ride the CSR arrays.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.kernel.bitops import bits_list
from repro.kernel.compile import GraphKernel


def greedy_color_array(
    kernel: GraphKernel,
    scope_mask: int | None = None,
    degrees: Sequence[int] | None = None,
) -> list[int]:
    """Color the vertices of ``scope_mask`` (default: all) greedily.

    Returns an array of length ``kernel.n`` holding a color index per in-scope
    vertex and ``-1`` outside the scope.  Matches the package-default
    ``greedy_coloring(graph, scope)`` color assignment bit for bit: same
    processing order (non-increasing full-graph degree, ties by ``str(id)``),
    same smallest-free-color rule — expressed as "first color class bitset
    with no neighbour in it", which costs one AND per probed class.

    ``degrees`` (indexed by kernel index) replaces the full-graph degrees in
    the processing order: passing the degrees inside the scope reproduces
    ``greedy_coloring(graph.subgraph(scope))``.
    """
    members = list(range(kernel.n)) if scope_mask is None else bits_list(scope_mask)
    if degrees is None:
        degrees = kernel.degrees
    tie_keys = kernel.tie_keys
    members.sort(key=lambda i: (-degrees[i], tie_keys[i]))
    colors = [-1] * kernel.n
    adj_bits = kernel.adj_bits
    class_masks: list[int] = []
    for index in members:
        neighbors = adj_bits[index]
        for color, class_mask in enumerate(class_masks):
            if not neighbors & class_mask:
                class_masks[color] = class_mask | (1 << index)
                colors[index] = color
                break
        else:
            colors[index] = len(class_masks)
            class_masks.append(1 << index)
    return colors


def coloring_to_array(kernel: GraphKernel, coloring: dict) -> list[int]:
    """Translate a dict-based ``{vertex: color}`` coloring to a kernel array."""
    colors = [-1] * kernel.n
    index_of = kernel.index_of
    for vertex, color in coloring.items():
        index = index_of.get(vertex)
        if index is not None:
            colors[index] = color
    return colors


def array_to_coloring(kernel: GraphKernel, colors: list[int]) -> dict:
    """Translate a kernel color array back to a ``{vertex: color}`` dict."""
    return {
        kernel.vertex_of[index]: color
        for index, color in enumerate(colors)
        if color >= 0
    }
