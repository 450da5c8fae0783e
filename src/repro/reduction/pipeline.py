"""The staged reduction pipeline used by MaxRFC (Algorithm 2, lines 1-3).

The exact search first shrinks the graph with three reductions applied in
sequence — ``EnColorfulCore`` → ``ColorfulSup`` → ``EnColorfulSup`` — each of
which preserves every relative fair clique of parameter ``k`` while removing
vertices/edges that cannot participate in one.  :class:`ReductionPipeline`
makes the stage list configurable so individual stages (and their order) can
be ablated, and records per-stage statistics for the Fig. 4 / Fig. 5
experiments.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.coloring.greedy import Coloring
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.validation import validate_parameters
from repro.reduction.colorful_support import colorful_support_reduction
from repro.reduction.core_reduction import (
    ReductionResult,
    colorful_core_reduction,
    enhanced_colorful_core_reduction,
)
from repro.reduction.enhanced_support import enhanced_colorful_support_reduction
from repro.resilience import faults

#: Stage callables take ``(graph, k, coloring)`` positionally.
ReductionStage = Callable[[AttributedGraph, int, Coloring | None], ReductionResult]

STAGE_REGISTRY: dict[str, ReductionStage] = {
    "ColorfulCore": colorful_core_reduction,
    "EnColorfulCore": enhanced_colorful_core_reduction,
    "ColorfulSup": colorful_support_reduction,
    "EnColorfulSup": enhanced_colorful_support_reduction,
}

DEFAULT_STAGES: tuple[str, ...] = ("EnColorfulCore", "ColorfulSup", "EnColorfulSup")


@dataclass
class PipelineResult:
    """Outcome of a full reduction pipeline run."""

    graph: AttributedGraph
    stages: list[ReductionResult] = field(default_factory=list)

    @property
    def vertices_before(self) -> int:
        """Vertex count of the original input graph."""
        return self.stages[0].vertices_before if self.stages else self.graph.num_vertices

    @property
    def edges_before(self) -> int:
        """Edge count of the original input graph."""
        return self.stages[0].edges_before if self.stages else self.graph.num_edges

    @property
    def vertices_after(self) -> int:
        """Vertex count after the final stage."""
        return self.graph.num_vertices

    @property
    def edges_after(self) -> int:
        """Edge count after the final stage."""
        return self.graph.num_edges

    def stage(self, name: str) -> ReductionResult:
        """Return the result of the stage called ``name`` (KeyError if absent)."""
        for result in self.stages:
            if result.name == name:
                return result
        raise KeyError(name)

    def summary(self) -> str:
        """Multi-line report of every stage, used by the CLI and experiments."""
        return "\n".join(result.summary() for result in self.stages)


class ReductionPipeline:
    """A configurable sequence of reduction stages.

    Parameters
    ----------
    stages:
        Stage names in execution order.  Defaults to the paper's
        ``EnColorfulCore -> ColorfulSup -> EnColorfulSup`` sequence.

    Examples
    --------
    >>> from repro.graph import paper_example_graph
    >>> pipeline = ReductionPipeline()
    >>> result = pipeline.run(paper_example_graph(), k=3)
    >>> result.vertices_after <= result.vertices_before
    True
    """

    def __init__(self, stages: Sequence[str] = DEFAULT_STAGES) -> None:
        unknown = [name for name in stages if name not in STAGE_REGISTRY]
        if unknown:
            raise KeyError(f"unknown reduction stage(s): {unknown}")
        self.stage_names = tuple(stages)

    def run(
        self,
        graph: AttributedGraph,
        k: int,
        coloring: Coloring | None = None,
    ) -> PipelineResult:
        """Run every stage in order and return the stacked result.

        The coloring, when provided, is reused by the first stage only;
        subsequent stages recolor the (smaller) surviving graph because the
        peeled graph may admit a tighter coloring.
        """
        validate_parameters(k, 0)
        current = graph
        results: list[ReductionResult] = []
        for index, name in enumerate(self.stage_names):
            stage = STAGE_REGISTRY[name]
            faults.maybe_fire("reduction.stage", stage=name, k=k)
            stage_coloring = coloring if index == 0 else None
            result = stage(current, k, stage_coloring)
            results.append(result)
            current = result.graph
            if current.num_vertices == 0:
                break
        return PipelineResult(graph=current, stages=results)


def reduce_graph(
    graph: AttributedGraph,
    k: int,
    stages: Sequence[str] = DEFAULT_STAGES,
) -> PipelineResult:
    """Convenience wrapper: run :class:`ReductionPipeline` with the given stages."""
    return ReductionPipeline(stages).run(graph, k)
