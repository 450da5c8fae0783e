"""Colorful-core peels on the compiled kernel.

Bitset/CSR ports of :func:`repro.cores.colorful.colorful_k_core` and
:func:`repro.cores.enhanced.enhanced_colorful_k_core`.  Both peels converge
to the unique maximal subgraph satisfying their degree condition (the
conditions are monotone in the surviving vertex set), so the kernel and dict
implementations agree on the survivor set no matter the peel order — the
parity suite asserts exactly that.

The plain colorful peel and the colorful core numbers are defined over *any*
attribute domain: the colorful degree ``D_min`` is the minimum, over every
attribute value carried by the snapshot, of the number of distinct colors
among a vertex's neighbours of that value.  On binary snapshots this is
exactly Definition 2; the multi-attribute weak model relies on the same
functions with ``d > 2``.  Only the *enhanced* peel stays binary — its
balanced-split degree encodes only-a/only-b/mixed arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cores.enhanced import balanced_split_value
from repro.kernel.bitops import bits_list
from repro.kernel.compile import GraphKernel


def colorful_k_core_mask(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
    scope_mask: int | None = None,
) -> int:
    """Vertex bitset of the colorful ``k``-core (Definition 3) inside ``scope_mask``.

    Maintains, per vertex and attribute, a multiset of surviving neighbour
    colors so each removal costs O(deg) dictionary updates.
    """
    scope = kernel.full_mask if scope_mask is None else scope_mask
    if not scope:
        return 0
    attr_codes = kernel.attr_codes
    num_values = max(1, len(kernel.attribute_values))
    indptr, indices = kernel.indptr, kernel.indices
    members = bits_list(scope)
    # O(1) membership probes: single-bit tests on a wide int cost O(words).
    alive = bytearray(kernel.n)
    for vertex in members:
        alive[vertex] = 1
    # color_count[v][attribute code] : {color: surviving-neighbour count}
    color_count: dict[int, tuple[dict[int, int], ...]] = {}
    for vertex in members:
        per_attr: tuple[dict[int, int], ...] = tuple({} for _ in range(num_values))
        for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
            if alive[neighbor]:
                bucket = per_attr[attr_codes[neighbor]]
                color = colors[neighbor]
                bucket[color] = bucket.get(color, 0) + 1
        color_count[vertex] = per_attr

    def min_degree(vertex: int) -> int:
        return min(len(bucket) for bucket in color_count[vertex])

    queue = [vertex for vertex in color_count if min_degree(vertex) < k]
    remaining = scope
    while queue:
        vertex = queue.pop()
        if not alive[vertex]:
            continue
        alive[vertex] = 0
        remaining &= ~(1 << vertex)
        vertex_attr = attr_codes[vertex]
        vertex_color = colors[vertex]
        for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
            if alive[neighbor]:
                bucket = color_count[neighbor][vertex_attr]
                count = bucket.get(vertex_color, 0)
                if count <= 1:
                    bucket.pop(vertex_color, None)
                    if min_degree(neighbor) < k:
                        queue.append(neighbor)
                else:
                    bucket[vertex_color] = count - 1
    return remaining


def enhanced_colorful_k_core_mask(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
    scope_mask: int | None = None,
) -> int:
    """Vertex bitset of the enhanced colorful ``k``-core (Definition 5).

    The enhanced colorful degree depends on the whole only-a/only-b/mixed
    color-group structure of a neighbourhood, so affected vertices are
    recomputed from their surviving neighbours — same strategy as the dict
    implementation, with the membership test reduced to one shift.
    """
    scope = kernel.full_mask if scope_mask is None else scope_mask
    attr_codes = kernel.attr_codes
    indptr, indices = kernel.indptr, kernel.indices
    members = bits_list(scope)
    alive = bytearray(kernel.n)
    for vertex in members:
        alive[vertex] = 1
    remaining = scope

    def degree_of(vertex: int) -> int:
        colors_a = 0  # bitsets of colors per attribute side
        colors_b = 0
        for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
            if alive[neighbor]:
                if attr_codes[neighbor] == 0:
                    colors_a |= 1 << colors[neighbor]
                else:
                    colors_b |= 1 << colors[neighbor]
        mixed = colors_a & colors_b
        return balanced_split_value(
            (colors_a & ~mixed).bit_count(),
            (colors_b & ~mixed).bit_count(),
            mixed.bit_count(),
        )

    queue = [vertex for vertex in members if degree_of(vertex) < k]
    pending = set(queue)
    while queue:
        vertex = queue.pop()
        pending.discard(vertex)
        if not alive[vertex]:
            continue
        if degree_of(vertex) >= k:
            continue
        alive[vertex] = 0
        remaining &= ~(1 << vertex)
        for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
            if alive[neighbor] and neighbor not in pending:
                if degree_of(neighbor) < k:
                    queue.append(neighbor)
                    pending.add(neighbor)
    return remaining


def min_colorful_degrees_of(
    rows: Sequence[int],
    members: Sequence[int],
    class_masks: Sequence[int],
    attr_a: int,
) -> list[int]:
    """``D_min(v) = min(D_a(v), D_b(v))`` per member, in order (Definition 2).

    ``D_a(v)`` is the number of distinct colors among ``v``'s in-scope
    neighbours of attribute ``a`` (every vertex outside ``attr_a`` is side
    ``b``).  With one bitset per color class of the scope
    (``class_masks``), split by side, it is the number of side classes that
    ``rows[v]`` meets: one AND per (color class, side).
    """
    side_a = [mask for mask in (c & attr_a for c in class_masks) if mask]
    side_b = [mask for mask in (c & ~attr_a for c in class_masks) if mask]
    minima = []
    for v in members:
        row = rows[v]
        count_a = 0
        for mask in side_a:
            if row & mask:
                count_a += 1
        count_b = 0
        for mask in side_b:
            if row & mask:
                count_b += 1
        minima.append(count_a if count_a < count_b else count_b)
    return minima


def colorful_core_numbers_mask(
    kernel: GraphKernel,
    colors: list[int],
    scope_mask: int | None = None,
) -> dict[int, int]:
    """Colorful core number per in-scope vertex index (Definition 8).

    Same generalized-core peel as the dict implementation; core numbers are
    canonical (independent of tie order among minimum-degree vertices), so
    both paths agree exactly.
    """
    scope = kernel.full_mask if scope_mask is None else scope_mask
    attr_codes = kernel.attr_codes
    num_values = max(1, len(kernel.attribute_values))
    indptr, indices = kernel.indptr, kernel.indices
    members = bits_list(scope)
    alive = bytearray(kernel.n)
    for vertex in members:
        alive[vertex] = 1
    color_count: dict[int, tuple[dict[int, int], ...]] = {}
    for vertex in members:
        per_attr: tuple[dict[int, int], ...] = tuple({} for _ in range(num_values))
        for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
            if alive[neighbor]:
                bucket = per_attr[attr_codes[neighbor]]
                color = colors[neighbor]
                bucket[color] = bucket.get(color, 0) + 1
        color_count[vertex] = per_attr

    def min_degree(vertex: int) -> int:
        return min(len(bucket) for bucket in color_count[vertex])

    degrees = {vertex: min_degree(vertex) for vertex in members}
    max_degree = max(degrees.values(), default=0)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 2)]
    for vertex, degree in degrees.items():
        buckets[degree].append(vertex)
    removed_count = 0
    total = len(members)
    core: dict[int, int] = {}
    level = 0
    current = 0
    while removed_count < total:
        while current <= max_degree and not buckets[current]:
            current += 1
        if current > max_degree:
            break
        vertex = buckets[current].pop()
        if not alive[vertex] or degrees[vertex] != current:
            continue
        alive[vertex] = 0
        removed_count += 1
        level = max(level, current)
        core[vertex] = level
        vertex_attr = attr_codes[vertex]
        vertex_color = colors[vertex]
        for neighbor in indices[indptr[vertex]:indptr[vertex + 1]]:
            if alive[neighbor]:
                bucket = color_count[neighbor][vertex_attr]
                count = bucket.get(vertex_color, 0)
                if count <= 1:
                    bucket.pop(vertex_color, None)
                    new_degree = min_degree(neighbor)
                    if new_degree != degrees[neighbor]:
                        degrees[neighbor] = new_degree
                        buckets[new_degree].append(neighbor)
                        if new_degree < current:
                            current = new_degree
                elif count > 1:
                    bucket[vertex_color] = count - 1
    return core


def colorful_core_order(kernel: GraphKernel, scope_mask: int) -> list:
    """CalColorOD on the kernel: rank-ordered original ids of ``scope_mask``.

    ``scope_mask`` must be a union of connected components (its caller,
    :meth:`repro.kernel.view.ComponentLayout.of_component`, passes one):
    the order then reads the kernel's cached
    :meth:`~repro.kernel.compile.GraphKernel.colorful_cores`, which equal a
    coloring and colorful core peel scoped to the mask.  Result-identical to
    ordering by :func:`repro.search.ordering.colorful_core_ordering` — same
    greedy coloring, same (canonical) colorful core numbers, same
    ``(core, degree, str(id))`` sort key.
    """
    _, cores = kernel.colorful_cores()
    degrees = kernel.degrees
    tie_keys = kernel.tie_keys
    ordered = sorted(
        bits_list(scope_mask),
        key=lambda i: (cores[i], degrees[i], tie_keys[i]),
    )
    vertex_of = kernel.vertex_of
    return [vertex_of[index] for index in ordered]

