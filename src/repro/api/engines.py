"""Built-in engines: the repo's solvers wrapped behind the registry.

Three engines cover the solver families of the paper:

* ``exact`` — the unified branch-and-bound (:class:`~repro.search.maxrfc.MaxRFC`)
  driven by the pluggable :mod:`repro.models` fairness-model layer; provably
  optimal for every model, kernel-native, and parallelisable with
  ``workers > 1`` across all models.
* ``heuristic`` — the linear-time heuristics: the HeurRFC framework for the
  binary models, the round-robin multi-attribute greedy for ``multi_weak``.
* ``brute_force`` — exhaustive maximal-clique enumeration, the slow oracle.

Every engine receives ``(graph, query, context)`` where ``context`` is the
:class:`~repro.api.batch.SolveContext` carrying the memoized reduction
artifacts; in a :func:`~repro.api.batch.solve_many` sweep all queries with the
same ``k`` (and the same model-resolved stage list) share one reduction run
through it.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.api.query import FairCliqueQuery
from repro.api.registry import register_engine
from repro.api.report import SolveReport
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.heuristic.heur_rfc import HeurRFC
from repro.models import make_model
from repro.search.maxrfc import MaxRFC, build_search_config
from repro.search.result import SearchResult
from repro.search.statistics import SearchStats
from repro.variants.multi_attribute import (
    MultiAttributeSearchResult,
    brute_force_maximum_multi_weak_fair_clique,
    greedy_multi_weak_fair_clique,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.batch import SolveContext

BINARY = ("relative", "weak", "strong")
ALL_MODELS = ("relative", "weak", "strong", "multi_weak")


def _workers_ignored_note(query: FairCliqueQuery, reason: str) -> dict[str, Any]:
    """Metadata noting a ``workers > 1`` request this engine cannot honour."""
    if query.workers is not None and query.workers > 1:
        return {"workers_ignored": reason}
    return {}


def _consume_options(query: FairCliqueQuery, allowed: dict[str, Any]) -> dict[str, Any]:
    """Overlay ``query.options`` onto the engine defaults, rejecting unknowns."""
    unknown = set(query.options) - set(allowed)
    if unknown:
        raise InvalidParameterError(
            f"engine {query.engine!r} does not understand option(s) "
            f"{sorted(unknown)}; supported: {sorted(allowed)}"
        )
    merged = dict(allowed)
    merged.update(query.options)
    return merged


def _empty_model_report(
    graph: AttributedGraph, query: FairCliqueQuery, algorithm: str
) -> SolveReport:
    """Report for models the graph's attribute domain cannot satisfy."""
    num_values = len(graph.attribute_values())
    if query.model == "multi_weak":
        note = "graph carries no attribute values; the multi_weak model needs at least one"
    else:
        note = (
            f"model {query.model!r} requires exactly two attribute values; "
            f"graph has {num_values}"
        )
    result = SearchResult(
        clique=frozenset(), k=query.k, delta=query.delta or 0,
        stats=SearchStats(), algorithm=algorithm, optimal=True,
    )
    return SolveReport.from_search_result(
        result, graph, query.model, query.engine, delta=query.delta,
        metadata={"note": note},
    )


def _resolve_exact(graph: AttributedGraph, query: FairCliqueQuery):
    """Resolve an exact-engine query into ``(model, config, substitution)``.

    Shared by :func:`exact_engine` and the session's ``explain()`` so the
    plan a session reports is, by construction, what the engine would run.
    ``substitution`` is the bound-stack substitution note (or ``None``): the
    model may swap a model-sound stack in for an explicitly requested one
    (multi_weak keeps only attribute-free bounds), and both surfaces must
    say so instead of silently running a different configuration.
    """
    model = make_model(query.model, query.k, query.delta, graph)
    options = _consume_options(query, {
        "bound_stack": "ubAD",
        "use_reduction": True,
        "use_heuristic": True,
        "ordering": None,
        "branch_limit": None,
        "reduction_stages": None,
    })
    config_kwargs = {k: v for k, v in options.items() if v is not None or k == "bound_stack"}
    config = build_search_config(time_limit=query.time_limit, **config_kwargs)
    substitution = None
    if "bound_stack" in query.options and config.bound_stack is not None:
        resolved = model.resolve_bound_stack(config.bound_stack)
        requested_names = config.bound_stack.names
        if resolved is None or resolved.names != requested_names:
            substitution = {
                "requested": list(requested_names),
                "used": list(resolved.names) if resolved is not None else [],
            }
    return model, config, substitution


@register_engine(
    "exact",
    models=ALL_MODELS,
    description="branch-and-bound with model-sound reductions and bounds (MaxRFC core)",
)
def exact_engine(
    graph: AttributedGraph, query: FairCliqueQuery, context: "SolveContext"
) -> SolveReport:
    """Provably optimal search; honours ``bound_stack``/``use_reduction``… options.

    The query's model resolves to a :class:`~repro.models.base.FairnessModel`
    that selects the sound reduction stages, the bound stack, and the
    heuristic seed; the search itself is model-agnostic.  ``workers > 1``
    dispatches *any* model to the component-sharded parallel executor
    (:mod:`repro.parallel`).
    """
    model, config, substitution = _resolve_exact(graph, query)

    if not model.admits(graph):
        # Checked before touching the shared reduction cache: the binary
        # pipeline stages assume binary attributes.
        return _empty_model_report(
            graph, query, model.algorithm_name(config.algorithm_name)
        )

    metadata: dict[str, Any] = {}
    if substitution is not None:
        metadata["bound_stack_substituted"] = substitution
    reduction = None
    seconds_charged = 0.0
    stages = model.reduction_stages(config.reduction_stages)
    if config.use_reduction and graph.num_vertices:
        reduction, seconds_charged, cache_hit = context.reduced(query.k, stages)
        metadata["reduction"] = [stage.summary() for stage in reduction.stages]
        metadata["reduction_cache_hit"] = cache_hit
    # Prepare step: compile (or fetch the memoized) kernel of the graph the
    # search will actually branch over, so repeated queries against one
    # reduction artifact share a single compiled snapshot.
    search_graph = reduction.graph if reduction is not None else graph
    if search_graph.num_vertices:
        kernel = context.kernel(search_graph)
        metadata["kernel"] = {"n": kernel.n, "m": kernel.num_edges}
    workers = query.workers or 1
    if workers > 1:
        from repro.parallel import ParallelMaxRFC

        # Durable solve checkpoint: the service parks a CheckpointHandle on
        # the context view so a killed server resumes this exact solve from
        # its last completed shard after a warm restart.
        checkpoint = getattr(context, "checkpoint", None)
        solver: MaxRFC = ParallelMaxRFC(config, workers, checkpoint=checkpoint)
    else:
        solver = MaxRFC(config)
    # Warm start: a refreshed session parks its previous (re-verified)
    # optimum on the context view; the solver merges it with the heuristic
    # seed so the search starts from the best lower bound available.
    warm = getattr(context, "warm_incumbent", None)
    if warm:
        solver.initial_incumbent = warm
        metadata["warm_start_size"] = len(warm)
    # Streaming tap: a session's stream() parks its incumbent hook on the
    # context; the solver publishes every improvement through it (serially
    # with the clique attached, via the shared channel size when sharded).
    hook = getattr(context, "incumbent_hook", None)
    if hook is not None:
        solver.on_improve = hook
    # Cooperative stop: a streaming session parks the consumer-disconnect
    # event here; the solver checks it alongside its deadline.
    stop_event = getattr(context, "stop_event", None)
    if stop_event is not None:
        solver.stop_event = stop_event
    # The caller-owned deadline (service request budget) rides the context
    # the same way; the solver combines it with its own time_limit.
    deadline = getattr(context, "deadline", None)
    result = solver.solve_model(
        graph, model, reduction=reduction, deadline=deadline
    )
    if "parallel" in result.stats.extra:
        metadata["parallel"] = result.stats.extra["parallel"]
    result.stats.reduction_seconds += seconds_charged
    return SolveReport.from_search_result(
        result, graph, query.model, "exact", delta=query.delta, metadata=metadata
    )


@register_engine(
    "heuristic",
    models=ALL_MODELS,
    description="linear-time heuristics: HeurRFC (binary) / round-robin greedy (multi_weak)",
)
def heuristic_engine(
    graph: AttributedGraph, query: FairCliqueQuery, context: "SolveContext"
) -> SolveReport:
    """Fast greedy framework; option ``restarts`` controls start-vertex retries."""
    options = _consume_options(query, {"restarts": 4})
    if query.model == "multi_weak":
        started = time.monotonic()
        clique = greedy_multi_weak_fair_clique(
            graph, query.k, restarts=options["restarts"]
        )
        stats = SearchStats(search_seconds=time.monotonic() - started)
        outcome = MultiAttributeSearchResult(
            clique=clique, k=query.k, stats=stats, optimal=False,
        )
        return SolveReport.from_multi_attribute_result(
            outcome, graph, engine="heuristic", algorithm="GreedyMW",
            metadata=_workers_ignored_note(
                query, "the round-robin greedy is a serial linear-time pass"
            ),
        )
    if not make_model(query.model, query.k, query.delta, graph).admits(graph):
        return _empty_model_report(graph, query, "HeurRFC")
    result = HeurRFC(restarts=options["restarts"]).solve(
        graph, query.k, query.effective_delta(graph)
    )
    return SolveReport.from_search_result(
        result, graph, query.model, "heuristic", delta=query.delta,
        metadata=_workers_ignored_note(query, "HeurRFC is a serial linear-time pass"),
    )


@register_engine(
    "brute_force",
    models=ALL_MODELS,
    description="exhaustive maximal-clique enumeration oracle (slow, optimal)",
)
def brute_force_engine(
    graph: AttributedGraph, query: FairCliqueQuery, context: "SolveContext"
) -> SolveReport:
    """The enumerate-everything baseline the paper argues against."""
    _consume_options(query, {})
    metadata = _workers_ignored_note(
        query, "the brute-force oracle enumerates serially"
    )
    if query.model == "multi_weak":
        started = time.monotonic()
        clique = brute_force_maximum_multi_weak_fair_clique(graph, query.k)
        stats = SearchStats(search_seconds=time.monotonic() - started)
        result = MultiAttributeSearchResult(clique=clique, k=query.k, stats=stats)
        return SolveReport.from_multi_attribute_result(
            result, graph, engine="brute_force", algorithm="BruteForceEnum",
            metadata=metadata,
        )
    if not make_model(query.model, query.k, query.delta, graph).admits(graph):
        return _empty_model_report(graph, query, "BruteForceEnum")
    from repro.baselines.enumeration import brute_force_maximum_fair_clique

    result = brute_force_maximum_fair_clique(graph, query.k, query.effective_delta(graph))
    return SolveReport.from_search_result(
        result, graph, query.model, "brute_force", delta=query.delta,
        metadata=metadata,
    )
