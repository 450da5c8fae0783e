"""Edge-peeling reductions on the compiled kernel.

The two support-based reductions (Algorithm 1 / Lemma 3 and Lemma 4) on
bitset adjacency: an edge key is a plain ``(min, max)`` int pair, the common
neighbourhood of an edge is one ``&`` of two adjacency bitsets, and edge
removal is two ``&= ~bit`` updates.

The survival conditions are monotone in the edge set, so the maximal
surviving subgraph is unique and the peel order does not matter.  The parity
suite checks both peels against a from-definition fixpoint that recomputes
:func:`~repro.reduction.colorful_support.colorful_supports` /
:func:`~repro.reduction.enhanced_support.enhanced_colorful_supports` after
every round.
"""

from __future__ import annotations

from collections import deque

from repro.kernel.bitops import bits_list, iter_bits, mask_above
from repro.kernel.compile import GraphKernel
from repro.reduction.enhanced_support import (
    _EdgeGroups,
    edge_satisfies_enhanced_support,
)

EdgePair = tuple[int, int]


def _thresholds(code_u: int, code_v: int, k: int) -> tuple[int, int]:
    """The ``(need_a, need_b)`` demands of Lemma 3 by endpoint attribute codes.

    Attribute code 0 is ``attribute_a`` (the kernel sorts attribute values the
    same way :func:`validate_binary_attributes` does), so this mirrors
    :func:`repro.reduction.colorful_support.support_thresholds` exactly.
    """
    if code_u == code_v:
        if code_u == 0:
            need_a, need_b = k - 2, k
        else:
            need_a, need_b = k, k - 2
    else:
        need_a, need_b = k - 1, k - 1
    return max(need_a, 0), max(need_b, 0)


def _edges(adj: list[int], n: int) -> list[EdgePair]:
    pairs: list[EdgePair] = []
    append = pairs.append
    for u in range(n):
        higher = adj[u] & mask_above(u)
        while higher:
            low = higher & -higher
            append((u, low.bit_length() - 1))
            higher ^= low
    return pairs


def _bulk_edge_groups(
    common: int,
    attr_codes: tuple[int, ...],
    colors: list[int],
) -> _EdgeGroups:
    """Build an edge's only-a/only-b/mixed group state in one pass.

    Equivalent to ``_EdgeGroups()`` + one ``add`` per common neighbour, but
    without the per-add group-transition bookkeeping — the counts are
    classified once at the end.  The state remains ready for incremental
    ``remove`` calls during the peel.
    """
    state = _EdgeGroups()
    color_counts = state.color_counts
    while common:
        low = common & -common
        w = low.bit_length() - 1
        common ^= low
        entry = color_counts.get(colors[w])
        if entry is None:
            color_counts[colors[w]] = entry = [0, 0]
        entry[attr_codes[w]] += 1
    count_a = count_b = count_mixed = 0
    for entry in color_counts.values():
        if entry[0]:
            if entry[1]:
                count_mixed += 1
            else:
                count_a += 1
        else:
            count_b += 1
    state.count_a = count_a
    state.count_b = count_b
    state.count_mixed = count_mixed
    return state


def colorful_support_peel(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
) -> tuple[list[int], int]:
    """Run the ColorfulSup edge peel; return ``(surviving adjacency, edges peeled)``.

    The returned adjacency is a per-vertex bitset list over kernel indices;
    vertices isolated by the peel simply end up with an empty mask.
    """
    n = kernel.n
    attr_codes = kernel.attr_codes
    adj = list(kernel.adj_bits)

    # Per edge: one {color: count} per attribute side; support = len(dict).
    tracker: dict[EdgePair, tuple[dict[int, int], dict[int, int]]] = {}
    for u, v in _edges(adj, n):
        counts: tuple[dict[int, int], dict[int, int]] = ({}, {})
        common = adj[u] & adj[v]
        while common:
            low = common & -common
            w = low.bit_length() - 1
            common ^= low
            bucket = counts[attr_codes[w]]
            color = colors[w]
            bucket[color] = bucket.get(color, 0) + 1
        tracker[(u, v)] = counts

    def violates(u: int, v: int) -> bool:
        need_a, need_b = _thresholds(attr_codes[u], attr_codes[v], k)
        counts = tracker[(u, v) if u < v else (v, u)]
        return len(counts[0]) < need_a or len(counts[1]) < need_b

    queue: deque[EdgePair] = deque()
    condemned: set[EdgePair] = set()
    for key in tracker:
        if violates(*key):
            queue.append(key)
            condemned.add(key)

    peeled = 0
    while queue:
        u, v = queue.popleft()
        if not (adj[u] >> v) & 1:
            continue
        common = adj[u] & adj[v]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        peeled += 1
        for w in iter_bits(common):
            for x, y, lost in ((u, w, v), (v, w, u)):
                key = (x, y) if x < y else (y, x)
                if key in condemned or not (adj[x] >> y) & 1:
                    continue
                bucket = tracker[key][attr_codes[lost]]
                color = colors[lost]
                remaining = bucket.get(color, 0) - 1
                if remaining <= 0:
                    bucket.pop(color, None)
                    if violates(x, y):
                        queue.append(key)
                        condemned.add(key)
                else:
                    bucket[color] = remaining
    return adj, peeled


def enhanced_support_peel(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
) -> tuple[list[int], int]:
    """Run the EnColorfulSup edge peel; return ``(surviving adjacency, edges peeled)``.

    Tracks each edge's only-a/only-b/mixed color groups incrementally with
    :class:`repro.reduction.enhanced_support._EdgeGroups`.
    """
    n = kernel.n
    attr_codes = kernel.attr_codes
    adj = list(kernel.adj_bits)

    groups: dict[EdgePair, _EdgeGroups] = {}
    for u, v in _edges(adj, n):
        groups[(u, v)] = _bulk_edge_groups(adj[u] & adj[v], attr_codes, colors)

    def violates(u: int, v: int) -> bool:
        need_a, need_b = _thresholds(attr_codes[u], attr_codes[v], k)
        state = groups[(u, v) if u < v else (v, u)]
        return not edge_satisfies_enhanced_support(
            state.count_a, state.count_b, state.count_mixed, need_a, need_b
        )

    queue: deque[EdgePair] = deque()
    condemned: set[EdgePair] = set()
    for key in groups:
        if violates(*key):
            queue.append(key)
            condemned.add(key)

    peeled = 0
    while queue:
        u, v = queue.popleft()
        if not (adj[u] >> v) & 1:
            continue
        common = adj[u] & adj[v]
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        peeled += 1
        for w in iter_bits(common):
            for x, y, lost in ((u, w, v), (v, w, u)):
                key = (x, y) if x < y else (y, x)
                if key in condemned or not (adj[x] >> y) & 1:
                    continue
                groups[key].remove(colors[lost], attr_codes[lost] == 0)
                if violates(x, y):
                    queue.append(key)
                    condemned.add(key)
    return adj, peeled


def survivors_mask(adj: list[int]) -> int:
    """Bitset of vertices that still have at least one incident edge."""
    mask = 0
    for index, neighbors in enumerate(adj):
        if neighbors:
            mask |= 1 << index
    return mask


def count_edges(adj: list[int], mask: int | None = None) -> int:
    """Number of undirected edges in a bitset adjacency (restricted to ``mask``)."""
    total = 0
    if mask is None:
        for neighbors in adj:
            total += neighbors.bit_count()
        return total // 2
    for index in bits_list(mask):
        total += (adj[index] & mask).bit_count()
    return total // 2
