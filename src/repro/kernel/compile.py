"""The frozen, integer-reindexed graph snapshot behind every hot path.

:class:`GraphKernel` is compiled once from a (mutable, hashable-id)
:class:`~repro.graph.attributed_graph.AttributedGraph` and is immutable from
then on.  It stores the same graph three ways, each optimal for a different
access pattern:

* **CSR arrays** (``indptr``/``indices``) — cache-friendly neighbour
  iteration for peeling algorithms and degree scans;
* **adjacency bitsets** (``adj_bits``) — one arbitrary-precision ``int`` per
  vertex, so candidate-set intersection inside the branch-and-bound is a
  single ``&`` and counting survivors is one ``bit_count()``;
* **attribute masks** (``attr_masks``) — one bitset of carriers per
  attribute value (any domain size, not just binary), so per-attribute
  counts of any vertex set are one AND + popcount per value — this is what
  lets every fairness model, including the multi-attribute weak model, share
  the same branch-and-bound.

Vertices are renumbered ``0..n-1`` in a deterministic order (sorted by
``str(id)``, matching the tie-breaking used across the package);
``vertex_of``/``index_of`` translate between the two worlds, and search
results are always materialised back to original ids.

The snapshot is *frozen*: mutating the source graph does not update a
compiled kernel.  ``AttributedGraph.compile()`` is the supported entry point
— it versions its mutations and recompiles only when the graph has actually
changed since the cached kernel was built.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Optional

from repro.kernel.bitops import bits_list, iter_bits, mask_from_indices_wide

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.graph.attributed_graph import AttributedGraph, Vertex
    from repro.kernel.view import ComponentLayout
    from repro.search.ordering import OrderingStrategy


class GraphKernel:
    """Immutable CSR + bitset snapshot of an attributed graph.

    Build one with :func:`compile_kernel` (or ``graph.compile()``); the
    constructor is internal.
    """

    __slots__ = (
        "n",
        "num_edges",
        "vertex_of",
        "index_of",
        "indptr",
        "indices",
        "adj_bits",
        "degrees",
        "attribute_values",
        "attr_codes",
        "attr_masks",
        "labels",
        "tie_keys",
        "_degeneracy_order",
        "_core_numbers",
        "_component_masks",
        "_colorful_cores",
        "_layouts",
    )

    def __init__(
        self,
        vertex_of: tuple,
        index_of: dict,
        indptr: list[int],
        indices: list[int],
        adj_bits: tuple[int, ...],
        attribute_values: tuple[str, ...],
        attr_codes: tuple[int, ...],
        attr_masks: tuple[int, ...],
        labels: dict[int, str],
        num_edges: int,
    ) -> None:
        self.n = len(vertex_of)
        self.num_edges = num_edges
        self.vertex_of = vertex_of
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.adj_bits = adj_bits
        self.degrees = tuple(
            indptr[i + 1] - indptr[i] for i in range(self.n)
        )
        self.attribute_values = attribute_values
        self.attr_codes = attr_codes
        self.attr_masks = attr_masks
        self.labels = labels
        self.tie_keys = tuple(str(v) for v in vertex_of)
        self._degeneracy_order: Optional[tuple[int, ...]] = None
        self._core_numbers: Optional[tuple[int, ...]] = None
        self._component_masks: Optional[tuple[int, ...]] = None
        self._colorful_cores: Optional[
            tuple[tuple[int, ...], tuple[int, ...]]
        ] = None
        self._layouts: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # Pickling: explicit and slot-based, so every supported Python routes
    # pickles through ``__getstate__`` (``object`` has one only from 3.11)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        # Search layouts are derived rows: a spawned worker builds those of
        # the components it searches rather than unpickling every one.
        state["_layouts"] = None
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def is_binary(self) -> bool:
        """True when the snapshot carries exactly two attribute values."""
        return len(self.attribute_values) == 2

    @property
    def num_attribute_values(self) -> int:
        """Number of distinct attribute values carried by the snapshot."""
        return len(self.attribute_values)

    @property
    def full_mask(self) -> int:
        """Bitset of every vertex: ``(1 << n) - 1``."""
        return (1 << self.n) - 1

    def neighbors_csr(self, index: int) -> list[int]:
        """Neighbour indices of ``index`` as a CSR slice (ascending)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def attribute_of(self, index: int) -> str:
        """Attribute value string of vertex ``index``."""
        return self.attribute_values[self.attr_codes[index]]

    # ------------------------------------------------------------------ #
    # id <-> index translation
    # ------------------------------------------------------------------ #
    def mask_of(self, vertices: Iterable) -> int:
        """Bitset of the given original-id vertices."""
        index_of = self.index_of
        return mask_from_indices_wide(
            (index_of[vertex] for vertex in vertices), self.n
        )

    def vertices_of_mask(self, mask: int) -> list:
        """Original ids of the vertices in ``mask`` (ascending index order)."""
        vertex_of = self.vertex_of
        return [vertex_of[i] for i in iter_bits(mask)]

    def frozenset_of_mask(self, mask: int) -> frozenset:
        """Original ids of the vertices in ``mask`` as a frozenset."""
        return frozenset(self.vertices_of_mask(mask))

    # ------------------------------------------------------------------ #
    # Degeneracy order (computed lazily, cached)
    # ------------------------------------------------------------------ #
    def degeneracy_order(self) -> tuple[int, ...]:
        """Indices in smallest-degree-first peeling order (ties by index)."""
        if self._degeneracy_order is None:
            self._compute_degeneracy()
        assert self._degeneracy_order is not None
        return self._degeneracy_order

    def core_numbers(self) -> tuple[int, ...]:
        """Classic core number per index (computed with the degeneracy peel)."""
        if self._core_numbers is None:
            self._compute_degeneracy()
        assert self._core_numbers is not None
        return self._core_numbers

    def degeneracy(self) -> int:
        """The degeneracy of the snapshot (0 for an empty graph)."""
        cores = self.core_numbers()
        return max(cores, default=0)

    def _compute_degeneracy(self) -> None:
        n = self.n
        degrees = list(self.degrees)
        max_degree = max(degrees, default=0)
        buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
        for index in range(n):
            buckets[degrees[index]].append(index)
        removed = [False] * n
        order: list[int] = []
        cores = [0] * n
        current = 0
        level = 0
        while len(order) < n:
            while current <= max_degree and not buckets[current]:
                current += 1
            if current > max_degree:
                break
            index = buckets[current].pop()
            if removed[index] or degrees[index] != current:
                continue
            removed[index] = True
            level = max(level, current)
            cores[index] = level
            order.append(index)
            for neighbor in self.neighbors_csr(index):
                if not removed[neighbor]:
                    degree = degrees[neighbor]
                    if degree > current:
                        degrees[neighbor] = degree - 1
                        buckets[degree - 1].append(neighbor)
                        if degree - 1 < current:
                            current = degree - 1
        self._degeneracy_order = tuple(order)
        self._core_numbers = tuple(cores)

    # ------------------------------------------------------------------ #
    # Greedy coloring and colorful core numbers (computed lazily, cached)
    # ------------------------------------------------------------------ #
    def colorful_cores(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(colors, colorful core numbers)`` of the whole snapshot, by index.

        The package-default greedy coloring and the colorful core numbers
        (Definition 8) under it.  Both are exact for any union of connected
        components: a vertex's color depends only on its earlier-colored
        neighbours, which share its component and are processed in the same
        ``(-degree, str(id))`` order by a pass scoped to that component, and
        colorful core numbers are canonical per component.  So CalColorOD
        and the heuristic read one decomposition instead of recomputing it
        per query.
        """
        if self._colorful_cores is None:
            from repro.kernel.coloring import greedy_color_array
            from repro.kernel.cores import colorful_core_numbers_mask

            colors = greedy_color_array(self)
            cores = colorful_core_numbers_mask(self, colors)
            self._colorful_cores = (
                tuple(colors),
                tuple(cores[index] for index in range(self.n)),
            )
        return self._colorful_cores

    # ------------------------------------------------------------------ #
    # Search layouts of components (built lazily, cached)
    # ------------------------------------------------------------------ #
    def component_layout(
        self,
        component_index: int,
        ordering: "OrderingStrategy",
        graph: "AttributedGraph | None" = None,
    ) -> "ComponentLayout":
        """The search layout of one component under ``ordering``, built once.

        Cached by ``(component_index, ordering)``, so every solve on this
        snapshot (warm re-solves, and pool workers forked after the
        coordinator filled the cache) reuses the renumbered rows.  A layout
        refers to no kernel and no graph, so the cache forms no reference
        cycle.  ``graph`` is the dict graph this kernel was compiled from;
        only orderings other than CalColorOD read it.
        """
        if self._layouts is None:
            self._layouts = {}
        key = (component_index, ordering)
        layout = self._layouts.get(key)
        if layout is None:
            from repro.kernel.view import ComponentLayout

            layout = ComponentLayout.of_component(
                self, component_index, ordering, graph
            )
            self._layouts[key] = layout
        return layout

    # ------------------------------------------------------------------ #
    # Connected components (computed lazily, cached)
    # ------------------------------------------------------------------ #
    def component_masks(self) -> tuple[int, ...]:
        """Vertex bitset of every connected component (ascending lowest index).

        BFS over adjacency bitsets: each frontier expansion ORs the rows of
        the frontier's vertices, with no per-edge Python work.
        """
        if self._component_masks is None:
            adj_bits = self.adj_bits
            components: list[int] = []
            unvisited = self.full_mask
            while unvisited:
                frontier = unvisited & -unvisited
                component = 0
                while frontier:
                    component |= frontier
                    reached = 0
                    for index in iter_bits(frontier):
                        reached |= adj_bits[index]
                    frontier = reached & unvisited & ~component
                components.append(component)
                unvisited &= ~component
            self._component_masks = tuple(components)
        return self._component_masks

    # ------------------------------------------------------------------ #
    # Incremental patching
    # ------------------------------------------------------------------ #
    def patch(self, delta, graph: "AttributedGraph") -> "GraphKernel":
        """Splice this snapshot to the mutated ``graph`` instead of recompiling.

        ``delta`` is the :class:`~repro.incremental.delta.GraphDelta`
        covering the mutations between the version this kernel was compiled
        at and ``graph``'s current state; the result is a *new* kernel,
        observably identical to a fresh ``compile_kernel(graph)`` (see
        :mod:`repro.incremental.patch`).
        ``graph.compile()`` applies this automatically when its journal can
        vouch for the gap — call it directly only when managing snapshots
        by hand.
        """
        from repro.incremental.patch import patch_kernel

        return patch_kernel(self, graph, delta)

    # ------------------------------------------------------------------ #
    # Materialisation back to the mutable world
    # ------------------------------------------------------------------ #
    def materialize(
        self,
        mask: int | None = None,
        adjacency: list[int] | tuple[int, ...] | None = None,
    ) -> "AttributedGraph":
        """Build an :class:`AttributedGraph` from (a sub-snapshot of) this kernel.

        ``mask`` restricts to a vertex subset (default: all vertices);
        ``adjacency`` optionally substitutes per-vertex neighbour bitsets —
        this is how the kernel edge-peeling reductions hand their surviving
        edge set back to the pipeline.  Edges to vertices outside ``mask``
        are dropped.
        """
        from repro.graph.attributed_graph import AttributedGraph

        if mask is None:
            mask = self.full_mask
        adj = self.adj_bits if adjacency is None else adjacency
        graph = AttributedGraph()
        members = bits_list(mask)
        for index in members:
            graph.add_vertex(
                self.vertex_of[index],
                self.attribute_values[self.attr_codes[index]],
                self.labels.get(index),
            )
        for index in members:
            higher = adj[index] & mask & (-1 << (index + 1))
            u = self.vertex_of[index]
            for other in iter_bits(higher):
                graph.add_edge(u, self.vertex_of[other])
        return graph

    def __repr__(self) -> str:
        return (
            f"GraphKernel(n={self.n}, m={self.num_edges}, "
            f"attributes={self.attribute_values!r})"
        )


def index_attributed_graph(graph: "AttributedGraph"):
    """Deterministic renumbering shared by compiling and patching.

    Returns ``(ordered, index_of, attribute_values, code_of)``.  Sorting by
    ``str(id)`` matches the tie-breaking used across the package, so two
    compilations of equal graphs — or a compile and a patch — agree on
    vertex indices, attribute codes, and therefore on every mask value.
    """
    ordered = sorted(graph.vertices(), key=str)
    index_of = {vertex: index for index, vertex in enumerate(ordered)}
    attribute_values = graph.attribute_values()
    code_of = {value: code for code, value in enumerate(attribute_values)}
    return ordered, index_of, attribute_values, code_of


def compile_kernel(graph: "AttributedGraph") -> GraphKernel:
    """Compile a frozen :class:`GraphKernel` snapshot from ``graph``.

    Prefer ``graph.compile()`` which memoizes the result until the next
    mutation.
    """
    ordered, index_of, attribute_values, code_of = index_attributed_graph(
        graph
    )
    n = len(ordered)

    indptr: list[int] = [0] * (n + 1)
    indices: list[int] = []
    adj_bits: list[int] = [0] * n
    attr_codes: list[int] = [0] * n
    attr_masks: list[int] = [0] * max(1, len(attribute_values))
    labels: dict[int, str] = {}

    for index, vertex in enumerate(ordered):
        code = code_of[graph.attribute(vertex)]
        attr_codes[index] = code
        attr_masks[code] |= 1 << index
        label = graph.label(vertex)
        if label != str(vertex):
            labels[index] = label
        neighbor_indices = sorted(index_of[u] for u in graph.neighbors(vertex))
        indices.extend(neighbor_indices)
        indptr[index + 1] = len(indices)
        mask = 0
        for neighbor in neighbor_indices:
            mask |= 1 << neighbor
        adj_bits[index] = mask

    return GraphKernel(
        vertex_of=tuple(ordered),
        index_of=index_of,
        indptr=indptr,
        indices=indices,
        adj_bits=tuple(adj_bits),
        attribute_values=attribute_values,
        attr_codes=tuple(attr_codes),
        attr_masks=tuple(attr_masks),
        labels=labels,
        num_edges=graph.num_edges,
    )
