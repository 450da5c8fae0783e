"""Dense local views of a kernel subset (one search component, typically).

The branch-and-bound explores one connected component at a time with its
vertices renumbered ``0..m-1`` *in rank order*, so that the root loop's
ordering filter "a root draws candidates ranked after it" becomes a single
shift-mask over a component-local bitset (below the root the search orders
candidates by its own coloring instead).

The local world is split in two.  A :class:`ComponentLayout` holds the
renumbered data: adjacency and non-adjacency rows, attribute masks and codes,
full-graph degrees and tie keys (to reproduce the package's greedy coloring
exactly).  It refers to no kernel and no graph, so
:meth:`~repro.kernel.compile.GraphKernel.component_layout` can cache one per
component without a reference cycle.  A :class:`SubgraphView` is the
per-solve handle that pairs a layout with its kernel, which the
colorful-degeneracy bound reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.bitops import bits_list
from repro.kernel.compile import GraphKernel
from repro.kernel.cores import colorful_core_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.attributed_graph import AttributedGraph
    from repro.search.ordering import OrderingStrategy


class ComponentLayout:
    """A kernel subset renumbered to dense local positions.

    ``order`` fixes the local position of every vertex: position ``p`` is the
    vertex ranked ``p``-th by the caller (the search passes its rank-sorted
    component).  All masks are over these local positions.
    """

    __slots__ = (
        "verts",
        "global_index",
        "adj",
        "non_adj",
        "attr_masks",
        "attr_codes",
        "degrees_full",
        "tie_keys",
        "_color_rank",
    )

    def __init__(self, kernel: GraphKernel, order: list) -> None:
        self.verts = list(order)
        n = len(self.verts)
        index_of = kernel.index_of
        self.global_index = [index_of[v] for v in self.verts]
        position_of = {g: p for p, g in enumerate(self.global_index)}
        adj: list[int] = []
        for g in self.global_index:
            mask = 0
            for neighbor in kernel.neighbors_csr(g):
                q = position_of.get(neighbor)
                if q is not None:
                    mask |= 1 << q
            adj.append(mask)
        self.adj = adj
        # Positions outside each closed neighbourhood: the search's coloring
        # drops a vertex and its neighbours from a class with one AND.
        full = (1 << n) - 1
        self.non_adj = [full ^ (row | 1 << p) for p, row in enumerate(adj)]
        codes = kernel.attr_codes
        num_values = max(1, len(kernel.attribute_values))
        # One local bitset per attribute value, plus a per-position code
        # array: probing one vertex's attribute must be O(1), not an
        # O(words) big-int shift.
        masks = [0] * num_values
        local_codes = [0] * n
        for p, g in enumerate(self.global_index):
            code = codes[g]
            masks[code] |= 1 << p
            local_codes[p] = code
        self.attr_masks = masks
        self.attr_codes = local_codes
        self.degrees_full = tuple(kernel.degrees[g] for g in self.global_index)
        self.tie_keys = tuple(kernel.tie_keys[g] for g in self.global_index)
        self._color_rank: list[int] | None = None

    @classmethod
    def of_component(
        cls,
        kernel: GraphKernel,
        component_index: int,
        ordering: "OrderingStrategy",
        graph: "AttributedGraph | None" = None,
    ) -> "ComponentLayout":
        """The rank-ordered layout of one component of ``kernel``.

        CalColorOD runs on the kernel.  The other orderings are defined on
        the dict graph the kernel was compiled from: pass it as ``graph``, or
        one is materialised from the kernel, which *is* that graph.
        """
        from repro.search.ordering import OrderingStrategy, compute_ordering

        mask = kernel.component_masks()[component_index]
        if ordering is OrderingStrategy.COLORFUL_CORE:
            return cls(kernel, colorful_core_order(kernel, mask))
        if graph is None:
            graph = kernel.materialize()
        component = kernel.vertices_of_mask(mask)
        rank = compute_ordering(graph, component, ordering)
        return cls(kernel, sorted(component, key=lambda v: rank[v]))

    def color_rank(self) -> list[int]:
        """Position of every vertex in the component's coloring total order.

        The greedy coloring processes vertices by ``(-full degree, str(id))``;
        that order is total, so restricting it to any scope equals sorting the
        scope by the same key.  Computing the ranks once per layout turns
        every per-instance sort from string-tuple comparisons into plain int
        comparisons.
        """
        if self._color_rank is None:
            order = sorted(
                range(len(self.verts)),
                key=lambda p: (-self.degrees_full[p], self.tie_keys[p]),
            )
            rank = [0] * len(order)
            for position, p in enumerate(order):
                rank[p] = position
            self._color_rank = rank
        return self._color_rank


class SubgraphView:
    """A per-solve handle over one :class:`ComponentLayout`.

    ``order`` is either a layout (the search passes the kernel's cached one)
    or the list of vertex ids to renumber, from which a fresh layout is
    built.  The view adds the ``kernel`` it came from and exposes the
    layout's rows under the same names.
    """

    __slots__ = (
        "kernel",
        "layout",
        "verts",
        "global_index",
        "adj",
        "non_adj",
        "attr_a",
        "attr_masks",
        "attr_codes",
        "tie_keys",
        "n",
    )

    def __init__(
        self, kernel: GraphKernel, order: "ComponentLayout | list",
    ) -> None:
        layout = (
            order if isinstance(order, ComponentLayout)
            else ComponentLayout(kernel, order)
        )
        self.kernel = kernel
        self.layout = layout
        self.verts = layout.verts
        self.global_index = layout.global_index
        self.adj = layout.adj
        self.non_adj = layout.non_adj
        self.attr_masks = layout.attr_masks
        self.attr_codes = layout.attr_codes
        # Binary convenience kept for the bound evaluators (Lemmas 6-14
        # treat attribute code 0 as side "a").
        self.attr_a = layout.attr_masks[0]
        self.tie_keys = layout.tie_keys
        self.n = len(layout.verts)

    @property
    def full_mask(self) -> int:
        """Mask with every local position set."""
        return (1 << self.n) - 1

    def frozenset_of(self, mask: int) -> frozenset:
        """Original vertex ids of the local positions in ``mask``."""
        verts = self.verts
        return frozenset(verts[p] for p in bits_list(mask))

    def color_class_masks(self, scope_mask: int) -> list[int]:
        """Greedy-color ``scope_mask``; return one vertex bitset per color class.

        Reproduces ``greedy_coloring(graph, scope)`` exactly: vertices are
        processed by non-increasing *full-graph* degree (ties by ``str(id)``)
        and receive the smallest color unused among in-scope neighbours.  The
        smallest-free-color rule becomes "first color class with no neighbour
        in it" — one bitset AND per probed class, instead of walking the
        neighbourhood bit by bit.
        """
        members = bits_list(scope_mask)
        members.sort(key=self.layout.color_rank().__getitem__)
        adj = self.adj
        class_masks: list[int] = []
        for p in members:
            neighbors = adj[p]
            bit_p = 1 << p
            for color, class_mask in enumerate(class_masks):
                if not neighbors & class_mask:
                    class_masks[color] = class_mask | bit_p
                    break
            else:
                class_masks.append(bit_p)
        return class_masks
