"""Component-scoped refresh of memoized reduction pipelines.

A cached :class:`~repro.reduction.pipeline.PipelineResult` for ``(k, stages)``
does not have to be recomputed from scratch when the graph mutates: every
reduction stage is *component-local* (a vertex's survival depends only on its
connected component — peeling conditions read neighbourhoods, and both the
greedy coloring and the degeneracy order restricted to a component equal the
component-alone run), so the survivors of components the delta never touched
are exactly the survivors a fresh full run would produce.  The refresh
therefore re-peels only the delta-touched components and splices the old
survivors of untouched components back in verbatim.

The one global input the stages consume besides component structure is the
*attribute domain* of the graph they run on: the colorful-core / support
conditions iterate the input graph's value set, and the enhanced stages
specialise on its size.  Reuse is therefore gated, per pipeline step, on the
domain the stage would see being unchanged:

* requirement 1 (reuse old survivors): the new full-run input domain at step
  ``i`` — untouched-part survivors ∪ re-peeled-part survivors — must equal the
  domain the *old* run saw at step ``i``;
* requirement 2 (reuse the partial run): that same domain must equal what the
  partial (touched-components-only) run actually ran with.

When any gate fails the refresh falls back to a full pipeline run — the
result is always valid and bit-identical to a cold run; the gates only decide
how much of it had to be recomputed.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import AttributeCountError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.components import connected_components
from repro.incremental.delta import GraphDelta
from repro.reduction.pipeline import PipelineResult, ReductionPipeline


def refresh_reduction(
    graph: AttributedGraph,
    delta: GraphDelta,
    old_result: PipelineResult,
    k: int,
    stages,
    old_domain,
) -> tuple[PipelineResult, dict]:
    """Refresh ``old_result`` (a pipeline run for ``(k, stages)``) after ``delta``.

    Parameters
    ----------
    graph:
        The *mutated* graph (the delta's ``new_version`` state).
    delta:
        Composed delta from the version ``old_result`` was computed at.
    old_result:
        The cached pipeline result for the pre-delta graph.
    old_domain:
        ``attribute_values()`` of the pre-delta graph (the old run's step-0
        domain; the pre-delta graph itself no longer exists).

    Returns ``(result, info)`` where ``result`` is a valid pipeline result
    for the mutated graph — its survivor graph is content-identical to a
    fresh ``ReductionPipeline(stages).run(graph, k)`` — and ``info`` reports
    ``mode`` (``"reused"`` | ``"partial"`` | ``"full"``) plus component
    counts / the fallback reason.
    """
    stage_names = tuple(stages)
    new_domain = graph.attribute_values()
    if tuple(old_domain) != new_domain:
        return _full(graph, k, stage_names, "attribute domain changed")
    if delta.is_empty:
        return old_result, {"mode": "reused", "components": None}
    if graph.num_vertices == 0:
        return _full(graph, k, stage_names, "graph emptied")

    touched = {v for v in delta.touched_vertices() if graph.has_vertex(v)}
    components = [frozenset(c) for c in connected_components(graph)]
    touched_comps = [c for c in components if not touched.isdisjoint(c)]
    untouched_comps = [c for c in components if touched.isdisjoint(c)]
    if not untouched_comps:
        return _full(graph, k, stage_names, "every component touched")
    untouched: set = set().union(*untouched_comps)

    partial: Optional[PipelineResult] = None
    touched_union: list = []
    if touched_comps:
        touched_union = sorted(set().union(*touched_comps), key=str)
        # Step-0 instance of requirement 2 (checked up front because the
        # stages *raise* on domains they do not support, e.g. the binary-only
        # enhanced stages): the partial run must see the full domain.
        if {graph.attribute(v) for v in touched_union} != set(new_domain):
            return _full(
                graph, k, stage_names,
                "touched components miss attribute value(s)",
            )
        try:
            partial = ReductionPipeline(stage_names).run(
                graph.subgraph(touched_union), k
            )
        except AttributeCountError:
            # An intermediate partial survivor graph left the domain a stage
            # supports; the combined full-run input would not have.
            return _full(
                graph, k, stage_names,
                "partial run left the supported domain",
            )

    # ------------------------------------------------------------------ #
    # Domain gates, one per pipeline step (see module docstring).
    # ------------------------------------------------------------------ #
    old_stage_graphs = [r.graph for r in old_result.stages]
    partial_stage_graphs = [r.graph for r in partial.stages] if partial else []
    for i in range(len(stage_names)):
        if i == 0:
            old_dom = set(old_domain)
            reused_dom = {graph.attribute(v) for v in untouched}
            partial_dom = {graph.attribute(v) for v in touched_union}
        else:
            old_g = old_stage_graphs[i - 1] if i - 1 < len(old_stage_graphs) else None
            old_dom = set(old_g.attribute_values()) if old_g is not None else set()
            reused_dom = (
                {old_g.attribute(v) for v in old_g.vertices() if v in untouched}
                if old_g is not None
                else set()
            )
            partial_g = (
                partial_stage_graphs[i - 1]
                if i - 1 < len(partial_stage_graphs)
                else None
            )
            partial_dom = (
                set(partial_g.attribute_values()) if partial_g is not None else set()
            )
        # Requirement 1: the untouched part must peel exactly as the old run
        # peeled it — same global domain at this step.
        if reused_dom and (reused_dom | partial_dom) != old_dom:
            return _full(
                graph, k, stage_names,
                f"domain drift at stage {stage_names[i]}",
            )
        # Requirement 2: the partial run must have seen the domain the full
        # run would see (no untouched-only value missing from its input).
        if partial_dom and not reused_dom <= partial_dom:
            return _full(
                graph, k, stage_names,
                f"partial run under-scoped at stage {stage_names[i]}",
            )

    # ------------------------------------------------------------------ #
    # Composite: old survivors of untouched components + re-peeled rest.
    # ------------------------------------------------------------------ #
    composite = AttributedGraph()
    _copy_into(composite, old_result.graph, untouched)
    if partial is not None:
        _copy_into(composite, partial.graph, None)
    result = PipelineResult(
        graph=composite,
        stages=list(partial.stages) if partial is not None else [],
    )
    info = {
        "mode": "partial" if touched_comps else "reused",
        "components": len(components),
        "components_reused": len(untouched_comps),
        "components_repeeled": len(touched_comps),
        "touched_vertices": len(touched),
    }
    return result, info


def _full(
    graph: AttributedGraph, k: int, stage_names: tuple, reason: str
) -> tuple[PipelineResult, dict]:
    """Fallback: cold pipeline run (the refresh gates rejected reuse).

    A mutation may move the graph onto a domain the stages refuse outright
    (e.g. a third attribute value against the binary-only enhanced stages).
    The cached artifact is unobservable then — the engine's ``admits`` gate
    rejects such queries before ever consulting the reduction cache — so the
    refresh stores an unreduced pass-through instead of crashing the
    session's ``refresh()``.
    """
    try:
        result = ReductionPipeline(stage_names).run(graph, k)
    except AttributeCountError:
        passthrough = AttributedGraph()
        _copy_into(passthrough, graph, None)
        return (
            PipelineResult(graph=passthrough, stages=[]),
            {"mode": "full", "reason": f"{reason} (stages refuse the domain)"},
        )
    return result, {"mode": "full", "reason": reason}


def _copy_into(dst: AttributedGraph, src: AttributedGraph, keep) -> None:
    """Copy ``src`` (restricted to ``keep`` when given) into ``dst``.

    Insertion runs in ``str``-sorted vertex order so composites built from
    the same parts are always the same object graph; downstream consumers
    (kernel compile, ordering, heuristics) are insertion-order independent
    anyway, so this is determinism belt-and-braces, not a correctness need.
    """
    members = [v for v in src.vertices() if keep is None or v in keep]
    members.sort(key=str)
    for vertex in members:
        label = src.label(vertex)
        dst.add_vertex(
            vertex, src.attribute(vertex), None if label == str(vertex) else label
        )
    member_set = set(members)
    for vertex in members:
        for neighbor in src.neighbors(vertex):
            if neighbor in member_set and not dst.has_edge(vertex, neighbor):
                dst.add_edge(vertex, neighbor)
