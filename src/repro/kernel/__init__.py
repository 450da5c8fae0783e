"""``repro.kernel`` — the compact bitset/CSR graph kernel.

A :class:`~repro.kernel.compile.GraphKernel` is a frozen, integer-reindexed
snapshot of an :class:`~repro.graph.attributed_graph.AttributedGraph`:
CSR adjacency for linear scans, per-vertex ``int`` bitmasks for set algebra,
and per-attribute bitmasks for fairness accounting.  A Python ``int`` is the
only storage: its ``&``, ``|`` and ``bit_count`` run at C speed for any
width, and every mask a consumer sees is such an int.  Every hot path of the
reproduction — the MaxRFC branch-and-bound, the support/core reductions, the
``ubAD`` bounds, the HeurRFC heuristic, and the Bron–Kerbosch baseline —
runs on this snapshot; the mutable ``AttributedGraph`` remains the
user-facing builder and crosses the freeze boundary via ``graph.compile()``.

The kernel is tested against independent set-based references: the parity
suite under ``tests/test_kernel`` checks kernel cores, reduction survivors,
bound values and maximal-clique sets against :mod:`repro.cores`,
:mod:`repro.bounds` and the reference clique enumerator, ``tests/test_heuristic``
checks HeurRFC against a dict reference, and the oracle fuzz under
``tests/test_search`` checks exact solves against brute force.
"""

from repro.kernel.bitops import (
    bit,
    bits_list,
    iter_bits,
    mask_above,
    mask_from_indices,
    popcount,
)
from repro.kernel.cliques import (
    enumerate_maximal_clique_masks,
    enumerate_maximal_cliques_kernel,
    maximum_clique_mask,
)
from repro.kernel.coloring import (
    array_to_coloring,
    coloring_to_array,
    greedy_color_array,
)
from repro.kernel.compile import GraphKernel, compile_kernel
from repro.kernel.cores import (
    colorful_k_core_mask,
    enhanced_colorful_k_core_mask,
)
from repro.kernel.reduce import support_peel, survivors_mask
from repro.kernel.search import KernelBranchAndBound
from repro.kernel.view import SubgraphView

__all__ = [
    "GraphKernel",
    "KernelBranchAndBound",
    "SubgraphView",
    "array_to_coloring",
    "bit",
    "bits_list",
    "colorful_k_core_mask",
    "coloring_to_array",
    "compile_kernel",
    "enhanced_colorful_k_core_mask",
    "enumerate_maximal_clique_masks",
    "enumerate_maximal_cliques_kernel",
    "greedy_color_array",
    "iter_bits",
    "mask_above",
    "mask_from_indices",
    "maximum_clique_mask",
    "popcount",
    "support_peel",
    "survivors_mask",
]
