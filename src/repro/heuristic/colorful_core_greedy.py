"""Colorful-core-based greedy — an extension strategy for the heuristic framework.

The two greedy procedures of the paper score vertices by degree and by
colorful degree.  Both scores can be misled by dense-but-cliqueless regions
(hubs, quasi-cliques) whose vertices have high degrees yet sit in no large
fair clique.  The *colorful core number* ``ccore(v)`` (Definition 8) is a much
sharper signal: a vertex inside a fair clique with ``min(s_a, s_b)`` vertices
per attribute has ``ccore(v) >= min(s_a, s_b) - 1``, whereas quasi-clique
vertices have small colorful core numbers because their neighbourhoods reuse
colors heavily.

This module adds a third greedy procedure that scores vertices by their
colorful core number.  It keeps the linear-time character of the framework
(one colorful core decomposition plus one greedy growth) and is used by
``HeurRFC`` alongside the paper's two strategies; the ablation benchmark
``bench_ablation_heuristic_strategies`` quantifies its contribution.
"""

from __future__ import annotations

from repro.graph.attributed_graph import AttributedGraph
from repro.heuristic.greedy_core import fair_clique_on_graph


def colorful_core_greedy_fair_clique(
    graph: AttributedGraph,
    k: int,
    delta: int,
    restarts: int = 1,
) -> frozenset:
    """Return the fair clique found by the colorful-core-number greedy (possibly empty)."""
    return fair_clique_on_graph(
        graph, k, delta, lambda kernel: kernel.colorful_cores()[1], restarts
    )
