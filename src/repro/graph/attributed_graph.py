"""The attributed graph substrate used by every algorithm in the package.

The paper works on an undirected, unweighted attributed graph
``G = (V, E, A)`` where every vertex carries one of two attribute values
(``A = {a, b}``).  :class:`AttributedGraph` stores such a graph with an
adjacency-set representation which gives O(1) expected-time edge queries and
O(min(deg(u), deg(v))) common-neighbour enumeration — the two operations the
reduction and search algorithms lean on most heavily.

Vertices are arbitrary hashable identifiers (the library uses ``int`` ids in
generated workloads and either ints or strings in case-study graphs).  An
optional human-readable label can be attached to each vertex for the case
studies of Section VI-C.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from typing import Optional

from repro.exceptions import (
    AttributeCountError,
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
)
from repro.incremental.delta import DeltaJournal, GraphDelta

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class AttributedGraph:
    """An undirected graph whose vertices carry a categorical attribute.

    Parameters
    ----------
    vertices:
        Optional iterable of ``(vertex, attribute)`` pairs to add up front.
    edges:
        Optional iterable of ``(u, v)`` pairs to add after the vertices.

    Examples
    --------
    >>> g = AttributedGraph()
    >>> g.add_vertex(1, "a")
    >>> g.add_vertex(2, "b")
    >>> g.add_edge(1, 2)
    >>> g.num_vertices, g.num_edges
    (2, 1)
    >>> sorted(g.neighbors(1))
    [2]
    """

    __slots__ = (
        "_adj",
        "_attr",
        "_labels",
        "_num_edges",
        "_version",
        "_kernel",
        "_kernel_version",
        "_kernel_base",
        "_kernel_stats",
        "_kernel_provenance",
        "_journal",
        "_batch",
    )

    def __init__(
        self,
        vertices: Optional[Iterable[tuple[Vertex, str]]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._attr: dict[Vertex, str] = {}
        self._labels: dict[Vertex, str] = {}
        self._num_edges = 0
        self._version = 0
        self._kernel = None
        self._kernel_version = -1
        self._kernel_base: Optional[tuple] = None
        self._kernel_stats = {"compiled": 0, "patched": 0}
        self._kernel_provenance: Optional[dict] = None
        self._journal: Optional[DeltaJournal] = None
        self._batch: Optional[list] = None
        if vertices is not None:
            for vertex, attribute in vertices:
                self.add_vertex(vertex, attribute)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex, attribute: str, label: Optional[str] = None) -> None:
        """Add ``vertex`` with the given ``attribute`` (idempotent on re-add).

        Re-adding an existing vertex updates its attribute and label but keeps
        its incident edges.
        """
        if vertex not in self._adj:
            self._adj[vertex] = set()
        self._attr[vertex] = attribute
        if label is not None:
            self._labels[vertex] = label
        self._mutated((("add_vertex", vertex, attribute, label),))

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``.

        Both endpoints must already exist.  Self-loops are rejected because a
        clique never contains one and they would corrupt degree bookkeeping.
        Adding an existing edge is a no-op.
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        if u not in self._adj:
            raise VertexNotFoundError(u)
        if v not in self._adj:
            raise VertexNotFoundError(v)
        if v in self._adj[u]:
            return
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._mutated((("add_edge", u, v),))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``; raise if it does not exist."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._mutated((("remove_edge", u, v),))

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all its incident edges."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        neighbors = self._adj.pop(vertex)
        for other in neighbors:
            self._adj[other].discard(vertex)
        self._num_edges -= len(neighbors)
        del self._attr[vertex]
        self._labels.pop(vertex, None)
        # One delta covers the implicit incident-edge removals plus the
        # vertex itself, so patch consumers see every touched endpoint.
        ops = tuple(
            ("remove_edge", vertex, other) for other in sorted(neighbors, key=str)
        ) + (("remove_vertex", vertex),)
        self._mutated(ops)

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove a batch of vertices (ignoring ones already absent)."""
        for vertex in vertices:
            if vertex in self._adj:
                self.remove_vertex(vertex)

    # ------------------------------------------------------------------ #
    # Delta capture
    # ------------------------------------------------------------------ #
    def _mutated(self, ops: tuple) -> None:
        """Register effective mutation ``ops``: one version bump per call,
        deferred to batch exit inside :meth:`mutate`.

        The delta journal is armed lazily (first :meth:`compile` or first
        :meth:`mutate`) so bulk graph construction pays nothing for delta
        capture — deltas only matter relative to a version somebody pinned.
        """
        batch = self._batch
        if batch is not None:
            batch.extend(ops)
            return
        base = self._version
        self._version = base + 1
        if self._journal is not None:
            self._journal.record(GraphDelta(base, self._version, ops))

    @contextmanager
    def mutate(self):
        """Batch context: N mutations inside it coalesce into ONE version bump.

        ::

            with graph.mutate() as g:
                g.add_vertex("x", "a")
                g.add_edge("x", "y")
                g.remove_edge("u", "v")

        The three mutations above bump :attr:`version` once and record a
        single composed :class:`~repro.incremental.delta.GraphDelta`, so a
        session refresh (or ``kernel.patch``) processes the whole batch as
        one unit.  A batch with zero *effective* ops (e.g. only re-adding
        existing edges) does not bump the version at all.  Nested ``mutate``
        blocks join the outermost batch.  The delta is recorded on exit even
        if the body raises, covering whatever was already applied.
        """
        if self._batch is not None:
            yield self
            return
        if self._journal is None:
            self._journal = DeltaJournal()
        self._batch = []
        try:
            yield self
        finally:
            ops = self._batch
            self._batch = None
            if ops:
                base = self._version
                self._version = base + 1
                self._journal.record(GraphDelta(base, self._version, tuple(ops)))

    def delta_since(self, version: int) -> Optional[GraphDelta]:
        """Composed :class:`GraphDelta` from ``version`` to the current version.

        ``None`` means the journal cannot vouch for the span (capture was not
        armed yet, or the bounded history was dropped) — take the cold path.
        An empty delta is returned when ``version`` is already current.
        """
        if self._journal is None:
            if version == self._version:
                return GraphDelta(version, version, ops=(), batches=0)
            return None
        return self._journal.since(version, self._version)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``|E|``."""
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once."""
        seen: set[Vertex] = set()
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return True if ``vertex`` is in the graph."""
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return True if the undirected edge ``(u, v)`` is present."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, vertex: Vertex) -> set[Vertex]:
        """Return the neighbour set ``N(v)`` (a live set — do not mutate)."""
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: Vertex) -> int:
        """Return ``deg(v)``."""
        return len(self.neighbors(vertex))

    def max_degree(self) -> int:
        """Return ``d_max``, the maximum vertex degree (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj.values())

    def common_neighbors(self, u: Vertex, v: Vertex) -> set[Vertex]:
        """Return ``N(u) ∩ N(v)``, iterating over the smaller neighbourhood."""
        nu, nv = self.neighbors(u), self.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return {w for w in nu if w in nv}

    def attribute(self, vertex: Vertex) -> str:
        """Return ``A(v)``, the attribute value of ``vertex``."""
        try:
            return self._attr[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def attributes(self) -> Mapping[Vertex, str]:
        """Return a read-only view of the vertex → attribute mapping."""
        return dict(self._attr)

    def attribute_values(self) -> tuple[str, ...]:
        """Return the distinct attribute values present, sorted for determinism."""
        return tuple(sorted(set(self._attr.values()), key=str))

    def attribute_pair(self) -> tuple[str, str]:
        """Return the two attribute values ``(a, b)`` of a binary-attributed graph.

        Raises
        ------
        AttributeCountError
            If the graph does not carry exactly two distinct attribute values.
        """
        values = self.attribute_values()
        if len(values) != 2:
            raise AttributeCountError(
                f"expected exactly 2 attribute values, found {len(values)}: {values!r}"
            )
        return values[0], values[1]

    def label(self, vertex: Vertex) -> str:
        """Return the human-readable label of ``vertex`` (defaults to ``str(vertex)``)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return self._labels.get(vertex, str(vertex))

    def attribute_count(self, vertices: Iterable[Vertex], attribute: str) -> int:
        """Return ``cnt_S(attribute)`` for the vertex set ``S = vertices``."""
        return sum(1 for v in vertices if self._attr[v] == attribute)

    def attribute_histogram(self, vertices: Optional[Iterable[Vertex]] = None) -> dict[str, int]:
        """Return a histogram of attribute values over ``vertices`` (default: all)."""
        histogram: dict[str, int] = {}
        source = self._attr.values() if vertices is None else (self._attr[v] for v in vertices)
        for value in source:
            histogram[value] = histogram.get(value, 0) + 1
        return histogram

    # ------------------------------------------------------------------ #
    # Freeze boundary
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Mutation counter; bumped by every vertex/edge add or removal
        (once per :meth:`mutate` batch, however many mutations it holds).

        Lets callers (and the :meth:`compile` cache) detect whether a
        previously compiled kernel still describes this graph.
        """
        return self._version

    def compile(self):
        """Return the frozen :class:`~repro.kernel.compile.GraphKernel` snapshot.

        This is the freeze boundary between the mutable builder world and the
        integer/bitset kernel the algorithms run on: build or mutate the graph
        freely, then ``compile()`` once and hand the snapshot to the hot
        paths.  The snapshot is memoized and rebuilt only after a mutation
        (by patching the stale one when the journal covers the gap), so
        repeated calls between mutations are free; a snapshot never tracks
        later mutations — call ``compile()`` again after changing the graph.
        """
        from repro.kernel.compile import compile_kernel

        if self._kernel_version != self._version:
            if self._kernel is not None:
                # Keep the stale snapshot around: with a journal delta that
                # covers the gap it is patchable instead of garbage.
                self._kernel_base = (self._kernel_version, self._kernel)
            self._kernel = None
            self._kernel_version = self._version
        if self._journal is None:
            self._journal = DeltaJournal()
        if self._kernel is None:
            kernel = self._patched_kernel()
            if kernel is None:
                kernel = compile_kernel(self)
                self._kernel_stats["compiled"] += 1
                self._kernel_provenance = {
                    "origin": "compiled",
                    "deltas": 0,
                    "ops": 0,
                    "base_version": self._version,
                }
            self._kernel = kernel
        return self._kernel

    def _patched_kernel(self):
        """Patch the stale snapshot to the current version, or ``None``.

        Requires (a) a stale kernel, (b) a contiguous journal delta covering
        the version gap, and (c) the patch-vs-recompile heuristic to favour
        patching: the delta must touch at most half the graph
        (``2·|touched| <= n``).  Beyond that, rebuilding every touched row
        costs as much as a fresh compile and the remap bookkeeping is pure
        overhead.
        """
        base = self._kernel_base
        if base is None:
            return None
        base_version, old = base
        delta = self.delta_since(base_version)
        if delta is None or delta.is_empty:
            return None
        touched = delta.touched_vertices()
        if 2 * len(touched) > self.num_vertices:
            return None
        from repro.incremental.patch import patch_kernel

        kernel = patch_kernel(old, self, delta)
        self._kernel_stats["patched"] += 1
        self._kernel_provenance = {
            "origin": "patched",
            "deltas": delta.batches,
            "ops": len(delta.ops),
            "base_version": base_version,
        }
        return kernel

    def kernel_stats(self) -> dict[str, int]:
        """Counters of full compiles vs delta patches performed by this graph."""
        return dict(self._kernel_stats)

    def kernel_provenance(self) -> Optional[dict]:
        """How the most recent snapshot was produced.

        ``{"origin": "compiled"|"patched", "deltas": <batches folded in>,
        "ops": <mutation ops applied>, "base_version": <patch base>}`` —
        or ``None`` when no snapshot has been built yet.
        """
        info = self._kernel_provenance
        return dict(info) if info is not None else None

    def freeze(self):
        """Alias of :meth:`compile` (reads better at call sites that never mutate)."""
        return self.compile()

    @property
    def kernel_ready(self) -> bool:
        """True when a compiled kernel for the *current* version is memoized.

        Purely observational — it never triggers a compile.  Query planning
        (``session.explain``) uses it to report whether a query would reuse
        the snapshot or pay the compile.
        """
        return self._kernel is not None and self._kernel_version == self._version

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "AttributedGraph":
        """Return a deep copy (independent adjacency and attribute storage)."""
        clone = AttributedGraph()
        clone._adj = {v: set(neighbors) for v, neighbors in self._adj.items()}
        clone._attr = dict(self._attr)
        clone._labels = dict(self._labels)
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, vertices: Iterable[Vertex]) -> "AttributedGraph":
        """Return the subgraph induced by ``vertices`` (attributes and labels kept)."""
        keep = set(vertices)
        missing = [v for v in keep if v not in self._adj]
        if missing:
            raise VertexNotFoundError(missing[0])
        induced = AttributedGraph()
        for vertex in keep:
            induced.add_vertex(vertex, self._attr[vertex], self._labels.get(vertex))
        for vertex in keep:
            for neighbor in self._adj[vertex]:
                if neighbor in keep and not induced.has_edge(vertex, neighbor):
                    induced.add_edge(vertex, neighbor)
        return induced

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """Return True if ``vertices`` induce a complete subgraph."""
        members = list(dict.fromkeys(vertices))
        for i, u in enumerate(members):
            neighbors = self.neighbors(u)
            for v in members[i + 1:]:
                if v not in neighbors:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        # Compiled kernels are derived state: cheap to rebuild, potentially
        # large on the wire.  Keep pickles (process-pool batch solving) lean.
        return (self._adj, self._attr, self._labels, self._num_edges)

    def __setstate__(self, state) -> None:
        self._adj, self._attr, self._labels, self._num_edges = state
        self._version = 0
        self._kernel = None
        self._kernel_version = -1
        self._kernel_base = None
        self._kernel_stats = {"compiled": 0, "patched": 0}
        self._kernel_provenance = None
        self._journal = None
        self._batch = None

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        histogram = self.attribute_histogram()
        return (
            f"AttributedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"attributes={histogram})"
        )
