"""Vertex-level graph reductions: ColorfulCore (Lemma 1) and EnColorfulCore (Lemma 2).

These are the pre-existing reductions the paper builds on.  Both remove
*vertices* whose color/attribute structure makes it impossible for them to sit
inside a relative fair clique with parameter ``k``:

* ``ColorfulCore``    — keep the colorful ``(k-1)``-core (Definition 3, Lemma 1);
  defined over any attribute domain (the multi-attribute weak model uses it
  as its only reduction stage — every member of a weak fair clique has, for
  every value, at least ``k-1`` distinct colors among its neighbours of that
  value);
* ``EnColorfulCore``  — keep the enhanced colorful ``(k-1)``-core
  (Definitions 4-5, Lemma 2), which is never larger because it refuses to
  count one color for both attributes; binary domains only.

Both return a :class:`ReductionResult` describing what survived, so the
experiment harness can report remaining-vertex/edge curves (Figs. 4-5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coloring.greedy import Coloring
from repro.graph.attributed_graph import AttributedGraph, Vertex
from repro.graph.validation import validate_binary_attributes, validate_parameters


@dataclass
class ReductionResult:
    """Outcome of one reduction stage.

    Attributes
    ----------
    name:
        Human-readable stage name (``"EnColorfulCore"``, ``"ColorfulSup"``…).
    graph:
        The reduced graph (an independent copy; the input graph is untouched).
    vertices_before / vertices_after:
        Vertex counts on entry and exit.
    edges_before / edges_after:
        Edge counts on entry and exit.
    """

    name: str
    graph: AttributedGraph
    vertices_before: int
    vertices_after: int
    edges_before: int
    edges_after: int
    extra: dict = field(default_factory=dict)

    @property
    def vertices_removed(self) -> int:
        """Number of vertices deleted by this stage."""
        return self.vertices_before - self.vertices_after

    @property
    def edges_removed(self) -> int:
        """Number of edges deleted by this stage."""
        return self.edges_before - self.edges_after

    @property
    def vertex_retention(self) -> float:
        """Fraction of vertices kept (1.0 when the input was already empty)."""
        if self.vertices_before == 0:
            return 1.0
        return self.vertices_after / self.vertices_before

    @property
    def edge_retention(self) -> float:
        """Fraction of edges kept (1.0 when the input had no edges)."""
        if self.edges_before == 0:
            return 1.0
        return self.edges_after / self.edges_before

    def summary(self) -> str:
        """One-line human-readable summary used by reports and the CLI."""
        return (
            f"{self.name}: |V| {self.vertices_before} -> {self.vertices_after}, "
            f"|E| {self.edges_before} -> {self.edges_after}"
        )


def _kernel_core_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None,
    enhanced: bool,
) -> ReductionResult:
    """Peel the (enhanced) colorful ``(k-1)``-core on the compiled kernel.

    Both peels converge to the unique maximal subgraph of their lemma, so
    the survivors do not depend on the peel order.
    """
    from repro.kernel import (
        colorful_k_core_mask,
        coloring_to_array,
        enhanced_colorful_k_core_mask,
        greedy_color_array,
    )

    kernel = graph.compile()
    if coloring is None:
        colors = greedy_color_array(kernel)
    else:
        colors = coloring_to_array(kernel, coloring)
    peel = enhanced_colorful_k_core_mask if enhanced else colorful_k_core_mask
    survivors = peel(kernel, k - 1, colors)
    reduced = kernel.materialize(survivors)
    return ReductionResult(
        name="EnColorfulCore" if enhanced else "ColorfulCore",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
    )


def colorful_core_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
) -> ReductionResult:
    """Apply the ColorfulCore reduction: keep the colorful ``(k-1)``-core (Lemma 1)."""
    validate_parameters(k, 0)
    return _kernel_core_reduction(graph, k, coloring, enhanced=False)


def enhanced_colorful_core_reduction(
    graph: AttributedGraph,
    k: int,
    coloring: Coloring | None = None,
) -> ReductionResult:
    """Apply the EnColorfulCore reduction: keep the enhanced colorful ``(k-1)``-core (Lemma 2).

    Raises :class:`~repro.exceptions.AttributeCountError` unless the graph
    carries exactly two attribute values.
    """
    validate_parameters(k, 0)
    validate_binary_attributes(graph)
    return _kernel_core_reduction(graph, k, coloring, enhanced=True)


def drop_isolated_vertices(graph: AttributedGraph) -> ReductionResult:
    """Remove vertices with no incident edges (house-keeping stage after edge peels)."""
    survivors: list[Vertex] = [v for v in graph.vertices() if graph.degree(v) > 0]
    reduced = graph.subgraph(survivors)
    return ReductionResult(
        name="DropIsolated",
        graph=reduced,
        vertices_before=graph.num_vertices,
        vertices_after=reduced.num_vertices,
        edges_before=graph.num_edges,
        edges_after=reduced.num_edges,
    )
