"""HeurRFC — the combined heuristic framework (Algorithm 6).

``HeurRFC`` runs the greedy procedures and keeps the largest result, using the
intermediate clique to prune the graph between the runs:

1. ``R* ← DegHeur(G)``;
2. restrict ``G`` to its ``(|R*| - 1)``-core — a larger fair clique must live
   there because every member of an ``s``-clique has degree at least
   ``s - 1``;
3. ``R̂ ← ColorfulDegHeur(G)``; keep the larger of ``R*`` and ``R̂`` and
   re-prune;
4. (extension) repeat step 3 with the colorful-core-number greedy, which is
   far harder to mislead by dense-but-cliqueless regions;
5. recolor the surviving graph; the number of colors is a global upper bound
   on the maximum fair clique size.

The returned object carries the clique, that color upper bound, and the final
coloring — exactly the triple Algorithm 6 outputs — so the exact search can
reuse all three.

Every step runs on the input graph's compiled kernel, with the working graph
held as a vertex bitset (the *scope*) instead of an induced copy: the
``(|R*| - 1)``-core is read off the kernel's cached core numbers, and each
scope is colored once.  While the scope is the whole kernel, the coloring and
the colorful core numbers come from the kernel's cached
:meth:`~repro.kernel.compile.GraphKernel.colorful_cores`, which CalColorOD
reads too, so a warm session computes neither again.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.coloring.greedy import Coloring
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.validation import validate_binary_attributes, validate_parameters
from repro.heuristic.colorful_degree_greedy import colorful_degree_scores
from repro.heuristic.greedy_core import greedy_fair_mask
from repro.kernel.bitops import bits_list, mask_from_indices_wide
from repro.kernel.coloring import greedy_color_array
from repro.kernel.compile import GraphKernel
from repro.kernel.cores import colorful_core_numbers_mask
from repro.search.result import SearchResult
from repro.search.statistics import SearchStats


@dataclass
class HeuristicOutcome:
    """The triple returned by Algorithm 6: clique, color upper bound, coloring.

    ``kernel`` and ``scope`` locate the graph the last strategy ran on;
    ``pruned_graph`` materialises it the first time it is read.
    """

    clique: frozenset
    upper_bound: int
    coloring: Coloring
    seconds: float
    kernel: GraphKernel = field(repr=False, compare=False)
    scope: int = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        """Size of the heuristic fair clique."""
        return len(self.clique)

    @cached_property
    def pruned_graph(self) -> AttributedGraph:
        """The induced subgraph of the final scope (the input's last core prune)."""
        return self.kernel.materialize(self.scope)


class HeurRFC:
    """The heuristic framework combining DegHeur and ColorfulDegHeur.

    ``restarts`` controls how many top-scoring start vertices each greedy
    procedure tries (the paper uses a single start; a handful of restarts is a
    cheap robustness extension and remains linear time per restart).
    """

    def __init__(self, restarts: int = 4) -> None:
        self.restarts = restarts

    def run(self, graph: AttributedGraph, k: int, delta: int) -> HeuristicOutcome:
        """Execute Algorithm 6 (plus the colorful-core strategy) and return the triple."""
        validate_parameters(k, delta)
        started = time.monotonic()
        kernel = graph.compile()
        if not kernel.n:
            return HeuristicOutcome(
                frozenset(), 0, {}, time.monotonic() - started, kernel, 0
            )
        validate_binary_attributes(graph)
        best = greedy_fair_mask(
            kernel, kernel.full_mask, k, delta, kernel.degrees, self.restarts
        )
        scope = _core_scope(kernel, best)
        colorings: dict[int, Sequence[int]] = {}   # each scope is colored once

        def colors_of(mask: int) -> Sequence[int]:
            if mask not in colorings:
                colorings[mask] = _scope_colors(kernel, mask)
            return colorings[mask]

        for scores_of in (colorful_degree_scores, _colorful_core_scores):
            challenger = greedy_fair_mask(
                kernel, scope, k, delta,
                scores_of(kernel, colors_of(scope), scope), self.restarts,
            )
            if challenger.bit_count() > best.bit_count():
                best = challenger
                scope = _core_scope(kernel, best)
        colors = colors_of(scope)
        vertex_of = kernel.vertex_of
        return HeuristicOutcome(
            clique=kernel.frozenset_of_mask(best),
            upper_bound=max(colors, default=-1) + 1,
            coloring={vertex_of[i]: colors[i] for i in bits_list(scope)},
            seconds=time.monotonic() - started,
            kernel=kernel,
            scope=scope,
        )

    def solve(self, graph: AttributedGraph, k: int, delta: int) -> SearchResult:
        """Run the heuristic and wrap the outcome as a :class:`SearchResult`."""
        outcome = self.run(graph, k, delta)
        stats = SearchStats(heuristic_seconds=outcome.seconds)
        stats.extra["color_upper_bound"] = outcome.upper_bound
        return SearchResult(
            clique=outcome.clique,
            k=k,
            delta=delta,
            stats=stats,
            algorithm="HeurRFC",
            optimal=False,
        )


def _core_scope(kernel: GraphKernel, clique: int) -> int:
    """The ``(|clique| - 1)``-core of the whole kernel, where any larger fair clique must live."""
    threshold = clique.bit_count() - 1
    return mask_from_indices_wide(
        (index for index, core in enumerate(kernel.core_numbers()) if core >= threshold),
        kernel.n,
    )


def _scope_colors(kernel: GraphKernel, scope: int) -> Sequence[int]:
    """Greedy coloring of the induced subgraph on ``scope`` (``-1`` outside it).

    The whole kernel's is cached; a smaller scope is colored in the order of
    its own degrees, as ``greedy_coloring(graph.subgraph(scope))`` does.
    """
    if scope == kernel.full_mask:
        return kernel.colorful_cores()[0]
    adj = kernel.adj_bits
    degrees = [0] * kernel.n
    for index in bits_list(scope):
        degrees[index] = (adj[index] & scope).bit_count()
    return greedy_color_array(kernel, scope, degrees)


def _colorful_core_scores(
    kernel: GraphKernel, colors: Sequence[int], scope: int
) -> Sequence[int]:
    """The colorful-core greedy's scores: colorful core numbers of the scope."""
    if scope == kernel.full_mask:
        return kernel.colorful_cores()[1]
    cores = colorful_core_numbers_mask(kernel, colors, scope)
    return [cores.get(index, 0) for index in range(kernel.n)]


def heuristic_fair_clique(
    graph: AttributedGraph,
    k: int,
    delta: int,
    restarts: int = 1,
) -> SearchResult:
    """Convenience wrapper: run :class:`HeurRFC` and return its :class:`SearchResult`."""
    return HeurRFC(restarts=restarts).solve(graph, k, delta)
