"""Edge-peeling reductions on the compiled kernel: one witness-based support engine.

ColorfulSup (Algorithm 1 / Lemma 3) and EnColorfulSup (Lemma 4) keep an edge
``(u, v)`` only while its common neighbourhood shows ``need_a`` distinct
colors among attribute-``a`` vertices and ``need_b`` among attribute-``b``
ones; the demands depend on the endpoint attributes (:func:`_demands`).
EnColorfulSup also wants the two color sets disjoint, because inside a clique
a color is used by one vertex only.

**The witness rule.**  A *class* is a (color, attribute side) pair, and each
class has a bitset of its vertices.  For every live edge the engine holds
exactly ``need_a + need_b`` classes present in the edge's common
neighbourhood — its *witnesses* — as one small int, and nothing else.
Witnesses are found by AND-ing the common neighbourhood with class masks,
about one AND per witness; the common neighbours are never walked.  Removing
an edge ``(u, v)`` takes vertex ``v`` out of the common neighbourhood of
``(u, w)`` for each common neighbour ``w`` (and ``u`` out of ``(v, w)``).
That matters only when ``v``'s class is a held witness; then one AND
``adj[u] & adj[w] & class[v]`` says whether the class is still present.
Only an emptied witness triggers a rescan, which skips the classes already
held.  For EnColorfulSup the held colors are disjoint between the two sides,
so a rescan that finds no free color tries an augmenting path of length two:
a held color of the other side that is also present on this side moves
over, and a free color refills the other side.  An edge is condemned only
when no witness set exists at all, and a condemned edge leaves the witness
map, so one dict lookup tells a departure whether to look further.

**Why survivors do not depend on peel order.**  Both survival conditions are
monotone: adding edges never takes a color away from a common neighbourhood,
so the union of two subgraphs that satisfy the condition satisfies it too.
The maximal such subgraph is therefore unique, and a peel that removes only
edges violating the condition in the current (super)graph never removes one
of its edges.  For EnColorfulSup, "a disjoint witness set exists" is Hall's
condition for matching colors to the ``need_a + need_b`` demand slots, and
the witnesses are a maximum matching kept up by augmenting paths.  With only
two kinds of slot, a shortest augmenting path visits at most one slot of the
other side, so paths of length two are enough to decide it exactly.  The
parity suite checks both stages against a from-definition fixpoint that
recomputes :func:`~repro.reduction.colorful_support.colorful_supports` /
:func:`~repro.reduction.enhanced_support.enhanced_colorful_supports` after
every round.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.kernel.bitops import bits_list, mask_from_indices_wide
from repro.kernel.compile import GraphKernel


def _demands(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``(need_a, need_b)`` of Lemma 3, indexed by the endpoints' attribute codes.

    Attribute code 0 is ``attribute_a`` (the kernel sorts attribute values the
    same way :func:`validate_binary_attributes` does), so this mirrors
    :func:`repro.reduction.colorful_support.support_thresholds` exactly.
    """
    same_a = (max(k - 2, 0), max(k, 0))
    mixed = (max(k - 1, 0), max(k - 1, 0))
    same_b = (max(k, 0), max(k - 2, 0))
    return ((same_a, mixed), (mixed, same_b))


def support_peel(
    kernel: GraphKernel,
    k: int,
    colors: list[int],
    enhanced: bool = False,
) -> tuple[list[int], int]:
    """Run the ColorfulSup (or, with ``enhanced``, EnColorfulSup) edge peel.

    Returns ``(surviving adjacency, edges peeled)``.  The adjacency is a
    per-vertex bitset list over kernel indices; vertices isolated by the peel
    end up with an empty mask.
    """
    n = kernel.n
    sides = kernel.attr_codes
    adj = list(kernel.adj_bits)
    side_masks = (*kernel.attr_masks, 0)[:2]  # a one-valued kernel has no side b

    # Class id 2 * color + side, colors renumbered densely.
    dense: dict[int, int] = {}
    cid = [2 * dense.setdefault(c, len(dense)) + s for c, s in zip(colors, sides)]
    members: list[list[int]] = [[] for _ in range(2 * len(dense))]
    for index, h in enumerate(cid):
        members[h].append(index)
    cls = [mask_from_indices_wide(group, n) for group in members]
    # A held class blocks itself, or for the disjoint (enhanced) witnesses
    # both classes of its color; a scan skips a blocked class in one AND.
    if enhanced:
        blocked = [3 << (h & ~1) for h in range(len(cls))]
        hide = [~(cls[h] | cls[h ^ 1]) for h in range(len(cls))]
    else:
        blocked = [1 << h for h in range(len(cls))]
        hide = [~mask for mask in cls]

    def fresh(rest: int, held: int) -> int:
        """A class of ``rest`` that ``held`` does not block, or -1."""
        while rest:
            h = cid[rest.bit_length() - 1]
            if not held & blocked[h]:
                return h
            rest &= hide[h]
        return -1

    def pick(rest: int, held: int, want: int) -> tuple[int, int]:
        """Hold up to ``want`` new classes from ``rest``; return ``(held, missing)``."""
        while rest and want:
            h = cid[rest.bit_length() - 1]
            rest &= hide[h]
            if not held & blocked[h]:
                held |= 1 << h
                want -= 1
        return held, want

    def augment(common: int, held: int, s: int) -> int:
        """Hold one more side-``s`` witness; return the new set, or -1 if none."""
        h = fresh(common & side_masks[s], held)
        if h >= 0:
            return held | 1 << h
        if enhanced:
            free = fresh(common & side_masks[s ^ 1], held)
            if free >= 0:
                bits = held
                while bits:
                    h = bits.bit_length() - 1
                    bits ^= 1 << h
                    if h & 1 != s and common & cls[h ^ 1]:
                        # Color h moves to side s; the free color refills its slot.
                        return held ^ blocked[h] | 1 << free
        return -1

    demands = _demands(k)
    side_a, side_b = side_masks
    witnesses: dict[int, int] = {}  # u * n + v (u < v) -> held classes
    queue: list[tuple[int, int]] = []
    indptr, indices = kernel.indptr, kernel.indices
    for u in range(n):
        adj_u = adj[u]
        base = u * n
        demand_u = demands[sides[u]]
        end = indptr[u + 1]
        for v in indices[bisect_right(indices, u, indptr[u], end):end]:
            common = adj_u & adj[v]
            need_a, need_b = demand_u[sides[v]]
            held = missing = 0
            if need_a:
                held, missing = pick(common & side_a, 0, need_a)
            if need_b and not missing:
                held, missing = pick(common & side_b, held, need_b)
                while missing and enhanced:
                    held = augment(common, held, 1)
                    if held < 0:
                        break
                    missing -= 1
            if missing:
                queue.append((u, v))
            else:
                witnesses[base + v] = held

    def lose(key: int, held: int, common: int, s: int, x: int, y: int) -> None:
        held = augment(common, held, s)
        if held < 0:
            del witnesses[key]
            queue.append((x, y))
        else:
            witnesses[key] = held

    peeled = 0
    while queue:
        u, v = queue.pop()
        adj[u] = adj_u = adj[u] & ~(1 << v)
        adj[v] = adj_v = adj[v] & ~(1 << u)
        peeled += 1
        common = adj_u & adj_v
        if not common:
            continue
        # (u, w) loses v and (v, w) loses u for every common neighbour w.
        hu, hv = cid[u], cid[v]
        bit_u, bit_v = 1 << hu, 1 << hv
        keep_u, keep_v = adj_v & cls[hu], adj_u & cls[hv]
        for w in bits_list(common):
            adj_w = adj[w]
            key = u * n + w if u < w else w * n + u
            held = witnesses.get(key)
            if held is not None and held & bit_v and not keep_v & adj_w:
                lose(key, held ^ bit_v, adj_u & adj_w, hv & 1, u, w)
            key = v * n + w if v < w else w * n + v
            held = witnesses.get(key)
            if held is not None and held & bit_u and not keep_u & adj_w:
                lose(key, held ^ bit_u, adj_v & adj_w, hu & 1, v, w)
    return adj, peeled


def survivors_mask(adj: list[int]) -> int:
    """Bitset of vertices that still have at least one incident edge."""
    mask = 0
    for index, neighbors in enumerate(adj):
        if neighbors:
            mask |= 1 << index
    return mask
