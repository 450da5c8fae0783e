"""MaxRFC — the exact maximum fair clique search (Algorithms 2-3).

The solver follows the paper's architecture:

1. **Reduce** the graph with the staged pipeline
   ``EnColorfulCore → ColorfulSup → EnColorfulSup`` (Algorithm 2, lines 1-3).
2. Optionally **seed the incumbent** with the model's linear-time heuristic
   (``HeurRFC``, Section V, for the binary models) so the very first branches
   already prune hard.
3. For every connected component of the reduced graph, compute the
   colorful-core vertex ordering ``CalColorOD`` and run a **branch-and-bound**
   whose root loop visits the vertices in that order, each with its
   higher-ranked neighbours as candidates, and whose deeper levels branch in
   descending greedy-color order (MCQ/BBMC), pruning with (a) size /
   incumbent arguments, (b) per-attribute feasibility, (c) the
   fairness-gap argument, (d) the Section IV color bounds (ubc, ubac,
   ubeac) read off each node's one coloring whenever a bound stack is
   configured, and (e) the configurable stack of Section IV upper bounds
   itself at the root and at every first-vertex branch
   (:data:`~repro.kernel.search.BOUND_DEPTH`).

The fairness condition itself is pluggable: :meth:`MaxRFC.solve_model` takes
any :class:`~repro.models.base.FairnessModel` (relative, weak, strong, or the
multi-attribute weak generalisation) and the kernel branch-and-bound
(:class:`~repro.kernel.search.KernelBranchAndBound`) consumes only the
model's quota/gap data — it never branches on model names.
:meth:`MaxRFC.solve` remains the historic relative-model entry point.

Implementation note: Algorithm 3 in the paper interleaves a strict
attribute-alternation rule with the vertex-ordering filter; taken literally
the two interact so that cliques whose order-sorted attribute pattern does not
alternate would never be assembled.  This implementation keeps the ordering
filter (each clique is generated exactly once, by adding vertices in
increasing rank) and keeps fairness as *pruning* rather than as a hard
branching restriction, which preserves exactness; the attribute-driven
selection survives as a candidate-ordering heuristic.  The exact search is
validated against an independent Bron–Kerbosch-based oracle in the test suite.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.bounds.base import BoundStack
from repro.exceptions import SearchError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.validation import validate_parameters
from repro.models.base import ActiveModel, FairnessModel, RelativeFairness
from repro.reduction.pipeline import DEFAULT_STAGES, PipelineResult, ReductionPipeline
from repro.resilience.deadline import Deadline
from repro.search.ordering import OrderingStrategy
from repro.search.result import SearchResult
from repro.search.statistics import SearchStats
from repro.search.verification import fairness_satisfied


@dataclass
class MaxRFCConfig:
    """Tunable knobs of the exact search.

    Attributes
    ----------
    bound_stack:
        Stack of upper bounds used for branch pruning; ``None`` disables
        bound-based pruning (the plain ``MaxRFC`` baseline of Figs. 6-7).
        The fairness model may substitute a model-sound stack (the
        multi-attribute model keeps only the attribute-free bounds).
    use_reduction:
        Run the reduction pipeline before searching (Algorithm 2, lines 1-3).
    reduction_stages:
        Stage names for the pipeline (defaults to the paper's three stages).
        The fairness model may substitute model-sound stages.
    use_heuristic:
        Seed the incumbent with the model's heuristic before branching.
    ordering:
        Vertex-ordering strategy (CalColorOD by default).
    time_limit:
        Wall-clock budget in seconds (``None`` = unlimited).  When exceeded the
        search stops and the result is flagged non-optimal.
    branch_limit:
        Optional cap on explored branches, useful in benchmarks.
    """

    bound_stack: BoundStack | None = None
    use_reduction: bool = True
    reduction_stages: Sequence[str] = DEFAULT_STAGES
    use_heuristic: bool = False
    ordering: OrderingStrategy = OrderingStrategy.COLORFUL_CORE
    time_limit: float | None = None
    branch_limit: int | None = None
    algorithm_name: str = field(default="MaxRFC")


class _TimeBudgetExceeded(Exception):
    """Internal signal: stop the recursion, keep the incumbent."""


class MaxRFC:
    """Exact maximum fair clique solver over a pluggable fairness model."""

    def __init__(self, config: MaxRFCConfig | None = None) -> None:
        self.config = config or MaxRFCConfig()
        # Mirrors the best clique recorded during an in-flight search so a
        # time/branch budget abort can still return it (see solve()).
        self._incumbent: frozenset = frozenset()
        #: Optional ``(size, clique | None) -> None`` callback fired whenever
        #: the incumbent improves (heuristic seed included).  This is the tap
        #: behind ``session.stream()``; the parallel executor overrides how
        #: it is fed (worker incumbents arrive as sizes via the shared
        #: channel, without the clique).  Set it on the solver instance —
        #: it is deliberately not part of the (picklable) config.
        self.on_improve = None
        #: Optional ``threading.Event`` checked alongside the deadline (at
        #: the same 64-branch granularity): setting it aborts the search
        #: exactly like a budget expiry, keeping the incumbent.  This is how
        #: an abandoned streaming consumer stops its background solve.
        self.stop_event = None
        #: Optional warm-start incumbent: a clique the *caller* guarantees is
        #: a valid fair clique of the graph being solved (a session verifies
        #: its remembered optimum against the mutated graph before setting
        #: this).  Merged with the heuristic seed in :meth:`solve_model` —
        #: the search starts from the larger of the two, so it only has to
        #: beat (or re-prove) the previous answer.  Instance attribute, like
        #: the hooks: deliberately not part of the picklable config.
        self.initial_incumbent: frozenset | None = None

    def _notify_improve(self, size: int, clique: frozenset | None) -> None:
        if self.on_improve is not None:
            self.on_improve(size, clique)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(
        self,
        graph: AttributedGraph,
        k: int,
        delta: int,
        reduction: "PipelineResult | None" = None,
    ) -> SearchResult:
        """Find a maximum relative fair clique of ``graph`` for ``(k, delta)``.

        Thin wrapper over :meth:`solve_model` with the relative model; kept
        as the historic entry point (the weak/strong variants reach it with
        their mapped delta values).
        """
        validate_parameters(k, delta)
        return self.solve_model(graph, RelativeFairness(k, delta), reduction)

    def solve_model(
        self,
        graph: AttributedGraph,
        model: FairnessModel,
        reduction: "PipelineResult | None" = None,
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Find a maximum fair clique of ``graph`` under ``model``.

        ``reduction`` optionally supplies a precomputed reduction-pipeline
        result for ``(graph, model.k, model stages)`` (used by the batch API
        to share one pipeline run across queries); it is consulted only when
        the configuration has ``use_reduction`` enabled, and its cost is
        *not* added to this run's ``reduction_seconds`` — the caller owning
        the shared artifact decides how to account for it.

        ``deadline`` optionally imposes an externally-owned
        :class:`~repro.resilience.deadline.Deadline` (the service passes the
        request's, clamped by its quota tier).  It combines with
        ``config.time_limit`` by taking whichever expires first, and the
        resulting single object is what every layer below — component loop,
        shard payloads, retry decisions — consults.
        """
        config = self.config
        stats = SearchStats()
        best: frozenset = frozenset()
        deadline = Deadline.tightest(deadline, Deadline.start(config.time_limit))
        algorithm = model.algorithm_name(config.algorithm_name)

        if not model.admits(graph):
            # The model cannot be satisfied on this attribute domain (a
            # binary model on a non-binary graph): the answer is the empty
            # clique, not an error.
            return SearchResult(
                frozenset(), model.k, model.bound_delta_value(), stats,
                algorithm, True,
            )
        domain = model.domain_of(graph)
        if not domain:
            return SearchResult(
                frozenset(), model.k, model.bound_delta_value(), stats,
                algorithm, True,
            )
        active = model.bind(domain, config.bound_stack)

        working = graph
        if config.use_reduction:
            if reduction is None:
                started = time.monotonic()
                pipeline = ReductionPipeline(model.reduction_stages(config.reduction_stages))
                reduction = pipeline.run(graph, model.k)
                stats.reduction_seconds = time.monotonic() - started
            stats.extra["reduction"] = [stage.summary() for stage in reduction.stages]
            working = reduction.graph

        if config.use_heuristic and working.num_vertices > 0:
            started = time.monotonic()
            best = model.heuristic_seed(working)
            stats.heuristic_seconds = time.monotonic() - started
            stats.extra["heuristic_size"] = len(best)
            if best:
                self._notify_improve(len(best), best)

        warm = self.initial_incumbent
        if warm and len(warm) > len(best):
            # Soundness is the caller's contract (see __init__): the clique
            # is fair on ``graph``, so it is a valid lower bound and the
            # search stays exact.
            best = frozenset(warm)
            stats.extra["warm_start_size"] = len(best)
            self._notify_improve(len(best), best)

        started = time.monotonic()
        timed_out = False
        # Any clique recorded mid-search is mirrored here so a time/branch
        # budget abort keeps the best incumbent found, not just the seed.
        self._incumbent = best
        try:
            best = self._search_components(working, active, best, stats, deadline)
        except _TimeBudgetExceeded:
            timed_out = True
            best = self._incumbent
        stats.search_seconds = time.monotonic() - started
        stats.timed_out = timed_out

        return SearchResult(
            clique=best,
            k=model.k,
            delta=active.bound_delta,
            stats=stats,
            algorithm=algorithm,
            optimal=not timed_out,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _search_components(
        self,
        graph: AttributedGraph,
        model: ActiveModel,
        best: frozenset,
        stats: SearchStats,
        deadline: Deadline,
    ) -> frozenset:
        """Branch over every connected component of ``graph``, best first.

        The schedule is the one-worker shard plan
        (:func:`~repro.parallel.sharding.plan_shards`, in which nothing
        splits): components in decreasing degeneracy (the only place a big
        clique can hide), so the incumbent grows early and the remaining
        components are pruned cheaply, ties broken on the smallest member's
        canonical key, so the visit order (and therefore the reported
        optimum among equally-sized cliques) never depends on the insertion
        order of the graph being searched.  Components too small to beat
        the incumbent or short of a per-value quota are never searched.
        """
        if not graph.num_vertices:
            return best
        from repro.kernel.search import KernelBranchAndBound
        from repro.parallel.sharding import component_view, plan_shards

        # Recursion can go as deep as the largest clique; give it headroom.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), graph.num_vertices + 1000))
        kernel = graph.compile()
        plan = plan_shards(kernel, model, incumbent_size=len(best), workers=1)
        has_budget = (
            deadline.bounded
            or self.config.branch_limit is not None
            or self.stop_event is not None
        )
        for shard in plan.shards:
            if shard.component_size <= len(best):
                continue
            searcher = KernelBranchAndBound(
                view=component_view(
                    kernel, shard.component_index, self.config.ordering, graph
                ),
                model=model,
                stats=stats,
                check_budget=lambda s: self._check_budget(s, deadline),
                best_size=len(best),
                best_clique=best,
                has_budget=has_budget,
            )
            if self.on_improve is not None:
                # The kernel searcher's hook carries only the size; it always
                # updates ``best_clique`` *before* firing, so the closure can
                # attach the clique for the streaming surface.
                searcher.on_improve = (
                    lambda size, s=searcher: self._notify_improve(size, s.best_clique)
                )
            try:
                _, best = searcher.run()
            finally:
                # On a budget abort the searcher still holds the best clique
                # it had found; mirror it so solve() can return it.
                best = searcher.best_clique
                self._incumbent = best
        return best

    def _check_budget(self, stats: SearchStats, deadline: Deadline) -> None:
        if stats.branches_explored % 64 == 0:
            if deadline.expired():
                raise _TimeBudgetExceeded()
            stop = self.stop_event
            if stop is not None and stop.is_set():
                raise _TimeBudgetExceeded()
        if (
            self.config.branch_limit is not None
            and stats.branches_explored > self.config.branch_limit
        ):
            raise _TimeBudgetExceeded()


def build_search_config(
    bound_stack: BoundStack | str | None = "ubAD",
    use_reduction: bool = True,
    use_heuristic: bool = True,
    time_limit: float | None = None,
    ordering: OrderingStrategy = OrderingStrategy.COLORFUL_CORE,
    branch_limit: int | None = None,
    reduction_stages: Sequence[str] = DEFAULT_STAGES,
) -> MaxRFCConfig:
    """Build a :class:`MaxRFCConfig` from user-facing options.

    ``bound_stack`` accepts a Table II configuration name (``"ubAD"``,
    ``"ubAD+ubcp"``…) besides a ready-made :class:`BoundStack`.  Both the
    legacy :func:`find_maximum_fair_clique` convenience function and the
    ``exact`` engine of :mod:`repro.api` construct their configuration here,
    which is what guarantees the two surfaces search identically.
    """
    if isinstance(bound_stack, str):
        from repro.bounds.stacks import get_stack

        bound_stack = get_stack(bound_stack)
    config = MaxRFCConfig(
        bound_stack=bound_stack,
        use_reduction=use_reduction,
        reduction_stages=tuple(reduction_stages),
        use_heuristic=use_heuristic,
        time_limit=time_limit,
        ordering=ordering,
        branch_limit=branch_limit,
        algorithm_name="MaxRFC" if bound_stack is None else "MaxRFC+ub",
    )
    if use_heuristic and bound_stack is not None:
        config.algorithm_name = "MaxRFC+ub+HeurRFC"
    return config


def find_maximum_fair_clique(
    graph: AttributedGraph,
    k: int,
    delta: int,
    bound_stack: BoundStack | str | None = "ubAD",
    use_reduction: bool = True,
    use_heuristic: bool = True,
    time_limit: float | None = None,
    ordering: OrderingStrategy = OrderingStrategy.COLORFUL_CORE,
) -> SearchResult:
    """High-level convenience API for the exact search.

    Parameters mirror :class:`MaxRFCConfig`; ``bound_stack`` additionally
    accepts a Table II configuration name (``"ubAD"``, ``"ubAD+ubcp"``…).
    This is a thin shim over the same solver the unified :func:`repro.solve`
    API dispatches to; new code should prefer the query interface.

    Examples
    --------
    >>> from repro.graph import paper_example_graph
    >>> result = find_maximum_fair_clique(paper_example_graph(), k=3, delta=1)
    >>> result.size
    7
    """
    config = build_search_config(
        bound_stack=bound_stack,
        use_reduction=use_reduction,
        use_heuristic=use_heuristic,
        time_limit=time_limit,
        ordering=ordering,
    )
    return MaxRFC(config).solve(graph, k, delta)


def maximum_fair_clique_size(graph: AttributedGraph, k: int, delta: int) -> int:
    """Return just the size of the maximum relative fair clique (0 when none exists)."""
    return find_maximum_fair_clique(graph, k, delta).size


def assert_valid_result(graph: AttributedGraph, result: SearchResult) -> None:
    """Raise :class:`SearchError` if ``result``'s clique is not a valid fair clique."""
    if not result.found:
        return
    if not graph.is_clique(result.clique):
        raise SearchError("search returned a vertex set that is not a clique")
    if not fairness_satisfied(graph, result.clique, result.k, result.delta):
        raise SearchError("search returned a clique violating the fairness constraints")
