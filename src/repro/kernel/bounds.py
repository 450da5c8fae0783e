"""Kernel evaluation of the Section IV upper bounds.

Every bound of the repo's predefined stacks now has a bitset-native
evaluator on a :class:`~repro.kernel.view.SubgraphView`:

* the five cheap bounds of the default ``ubAD`` stack (Lemmas 5-9) — size,
  attribute, color, attribute-color, enhanced attribute-color — reduce to
  popcounts and small color bitsets;
* the structural bounds ``ub_deg``/``ub_h`` (Lemmas 10-11) peel / rank the
  scope-induced degrees straight off the local adjacency masks;
* the colorful bounds ``ubcd``/``ubch``/``ubcp`` (Lemmas 12-14) run the
  colorful-core peel, the colorful h-index, and the colorful-path DP on
  color-class masks + popcounts, so the kernel search never round-trips to
  dict structures for any predefined stack.

A bound outside :data:`KERNEL_BOUNDS` has no evaluator here; every stack a
solve runs is checked against that set by
:meth:`~repro.models.base.FairnessModel.resolve_bound_stack`.  The dict
implementations in :mod:`repro.bounds` remain the references.

By default an evaluation colors its scope in the package's degree order, and
then the kernel and the dict references produce identical values for
identical instances (the kernel coloring replicates the dict greedy
coloring, the peels converge to canonical core numbers, and the path DP runs
over the same total order): the parity suite pins this per bound and per
stack through :func:`evaluate_bound` and :func:`stack_evaluate`.
The search instead hands :func:`stack_prunes` the coloring it already built
for the node (MCQ/BBMC: Tomita and Seki, DMTCS 2003; San Segundo et al.,
Computers & OR 2011).  Any proper coloring of the scope keeps every color
bound (ubc, ubac, ubeac, ubcd, ubch, ubcp) valid, since a clique takes at
most one vertex per class; the values, and so the pruned branches, may
differ from the degree-order ones.
"""

from __future__ import annotations

from repro.bounds.base import BoundStack, UpperBound
from repro.cores.enhanced import balanced_split_value
from repro.cores.kcore import h_index_of_values
from repro.kernel.bitops import bits_list
from repro.kernel.cores import colorful_core_numbers_mask, min_colorful_degrees_of
from repro.kernel.view import SubgraphView

#: Bound names with a native kernel evaluator (every predefined stack).
KERNEL_BOUNDS = frozenset({
    "ubs", "uba", "ubc", "ubac", "ubeac",   # the ubAD group (Lemmas 5-9)
    "ub_deg", "ub_h",                        # structural (Lemmas 10-11)
    "ubcd", "ubch", "ubcp",                  # colorful (Lemmas 12-14)
})


class _Evaluation:
    """Shared per-instance scratch: the scope coloring and what derives from it."""

    __slots__ = ("view", "clique_mask", "cand_mask", "scope", "k", "delta",
                 "_class_masks", "_colors", "_positions", "_min_colorful")

    def __init__(
        self,
        view: SubgraphView,
        clique_mask: int,
        cand_mask: int,
        k: int,
        delta: int,
        class_masks: list[int] | None = None,
    ) -> None:
        self.view = view
        self.clique_mask = clique_mask
        self.cand_mask = cand_mask
        self.scope = clique_mask | cand_mask
        self.k = k
        self.delta = delta
        self._class_masks = class_masks
        self._colors: list[int] | None = None
        self._positions: list[int] | None = None
        self._min_colorful: list[int] | None = None

    def class_masks(self) -> list[int]:
        if self._class_masks is None:
            self._class_masks = self.view.color_class_masks(self.scope)
        return self._class_masks

    def positions(self) -> list[int]:
        """Local positions of the scope vertices (ascending)."""
        if self._positions is None:
            self._positions = bits_list(self.scope)
        return self._positions

    def colors(self) -> list[int]:
        """Per-position color of the scope coloring (-1 outside the scope)."""
        if self._colors is None:
            colors = [-1] * self.view.n
            for color, class_mask in enumerate(self.class_masks()):
                for p in bits_list(class_mask):
                    colors[p] = color
            self._colors = colors
        return self._colors

    def attribute_color_sets(self) -> tuple[int, int]:
        """Bitsets of colors used by attribute-a / attribute-b scope vertices.

        One AND per (color class, attribute side) — O(number of colors), not
        O(scope size).
        """
        attr_a = self.view.attr_a
        colors_a = 0
        colors_b = 0
        for color, class_mask in enumerate(self.class_masks()):
            if class_mask & attr_a:
                colors_a |= 1 << color
            if class_mask & ~attr_a:
                colors_b |= 1 << color
        return colors_a, colors_b

    def min_colorful_degrees(self) -> list[int]:
        """``D_min(v) = min(D_a(v), D_b(v))`` per scope vertex (Definition 2).

        Colorful degrees count *distinct colors* per attribute side among the
        in-scope neighbours; with one bitset per color class each side is one
        AND + truth test per class.
        """
        if self._min_colorful is None:
            self._min_colorful = min_colorful_degrees_of(
                self.view.adj, self.positions(), self.class_masks(), self.view.attr_a
            )
        return self._min_colorful


def _scope_degeneracy(ev: _Evaluation) -> int:
    """Degeneracy of the scope-induced subgraph (canonical, so dict-identical)."""
    positions = ev.positions()
    if not positions:
        return 0
    adj = ev.view.adj
    scope = ev.scope
    degrees = {p: (adj[p] & scope).bit_count() for p in positions}
    max_degree = max(degrees.values())
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for p, degree in degrees.items():
        buckets[degree].append(p)
    alive = set(positions)
    current = 0
    level = 0
    while alive:
        while current <= max_degree and not buckets[current]:
            current += 1
        if current > max_degree:
            break
        p = buckets[current].pop()
        if p not in alive or degrees[p] != current:
            continue
        alive.remove(p)
        if current > level:
            level = current
        for q in bits_list(adj[p] & scope):
            if q in alive:
                degree = degrees[q]
                if degree > current:
                    degrees[q] = degree - 1
                    buckets[degree - 1].append(q)
    return level


def _colorful_degeneracy(ev: _Evaluation) -> int:
    """Colorful degeneracy of the scope (Definition 9) = max colorful core.

    Reuses the canonical bucket peel of
    :func:`repro.kernel.cores.colorful_core_numbers_mask` by lifting the
    view-local scope (positions + scope coloring) to kernel indices — the
    scope is a subset of the view's component, and the peel only ever looks
    at in-scope neighbours, so the restriction is faithful.  Colorful core
    numbers are canonical (independent of tie order among minimum-degree
    vertices), so the maximum matches the dict peel exactly.
    """
    positions = ev.positions()
    if not positions:
        return 0
    view = ev.view
    kernel = view.kernel
    global_index = view.global_index
    colors = ev.colors()
    colors_global = [-1] * kernel.n
    scope_global = 0
    for p in positions:
        g = global_index[p]
        colors_global[g] = colors[p]
        scope_global |= 1 << g
    cores = colorful_core_numbers_mask(kernel, colors_global, scope_global)
    return max(cores.values(), default=0)


def _colorful_path(ev: _Evaluation) -> int:
    """Longest colorful path of the scope (Definition 11 / Algorithm 4).

    Same total order as the dict DAG — ``(color, str(id))``, where the view's
    ``tie_keys`` are exactly ``str(original id)`` — so the DP computes the
    identical longest-path length without building vertex dicts.
    """
    positions = ev.positions()
    if not positions:
        return 0
    view = ev.view
    adj = view.adj
    scope = ev.scope
    colors = ev.colors()
    tie_keys = view.tie_keys
    ordered = sorted(positions, key=lambda p: (colors[p], tie_keys[p]))
    best = [0] * view.n
    done = 0
    longest = 0
    for p in ordered:
        value = 1
        for q in bits_list(adj[p] & scope & done):
            candidate = best[q] + 1
            if candidate > value:
                value = candidate
        best[p] = value
        done |= 1 << p
        if value > longest:
            longest = value
    return longest


def _evaluate(name: str, ev: _Evaluation) -> int:
    if name == "ubs":
        return ev.scope.bit_count()
    if name == "uba":
        count_a = (ev.scope & ev.view.attr_a).bit_count()
        count_b = ev.scope.bit_count() - count_a
        return min(count_a + count_b, 2 * min(count_a, count_b) + ev.delta)
    if name == "ubc":
        return len(ev.class_masks())
    if name == "ubac":
        colors_a, colors_b = ev.attribute_color_sets()
        len_a, len_b = colors_a.bit_count(), colors_b.bit_count()
        return min(len_a + len_b, 2 * min(len_a, len_b) + ev.delta)
    if name == "ubeac":
        colors_a, colors_b = ev.attribute_color_sets()
        mixed = colors_a & colors_b
        count_a = (colors_a & ~mixed).bit_count()
        count_b = (colors_b & ~mixed).bit_count()
        count_mixed = mixed.bit_count()
        total = count_a + count_b + count_mixed
        return min(
            total,
            2 * balanced_split_value(count_a, count_b, count_mixed) + ev.delta,
        )
    if name == "ub_deg":
        return _scope_degeneracy(ev) + 1
    if name == "ub_h":
        adj = ev.view.adj
        scope = ev.scope
        return h_index_of_values(
            (adj[p] & scope).bit_count() for p in ev.positions()
        ) + 1
    if name == "ubcd":
        return 2 * (_colorful_degeneracy(ev) + 1) + ev.delta
    if name == "ubch":
        return 2 * (h_index_of_values(ev.min_colorful_degrees()) + 1) + ev.delta
    if name == "ubcp":
        return _colorful_path(ev)
    raise KeyError(name)


def evaluate_bound(
    view: SubgraphView,
    bound: UpperBound,
    clique_mask: int,
    cand_mask: int,
    k: int,
    delta: int,
) -> int:
    """Evaluate one named bound on a ``(R, C)`` instance of ``view``.

    The parity suite pins it value-for-value against the bound's dict
    reference.
    """
    return _evaluate(bound.name, _Evaluation(view, clique_mask, cand_mask, k, delta))


def stack_prunes(
    view: SubgraphView,
    stack: BoundStack,
    clique_mask: int,
    cand_mask: int,
    k: int,
    delta: int,
    threshold: int,
    classes: list[int] | None = None,
) -> bool:
    """Kernel analogue of :meth:`BoundStack.prunes` for one ``(R, C)`` instance.

    Bounds are consulted in the stack's cheapest-first order; the first value
    at or below ``threshold`` short-circuits, exactly like the dict path.
    ``classes``, when given, must be a proper coloring of
    ``clique_mask | cand_mask`` (one bitset per class); the color bounds
    then read it instead of recoloring the scope.
    """
    ev = _Evaluation(view, clique_mask, cand_mask, k, delta, classes)
    for bound in stack.bounds:
        if _evaluate(bound.name, ev) <= threshold:
            return True
    return False


def stack_evaluate(
    view: SubgraphView,
    stack: BoundStack,
    clique_mask: int,
    cand_mask: int,
    k: int,
    delta: int,
) -> int:
    """Kernel analogue of :meth:`BoundStack.evaluate`: min over all bounds."""
    ev = _Evaluation(view, clique_mask, cand_mask, k, delta)
    return min(_evaluate(bound.name, ev) for bound in stack.bounds)
