"""DegHeur — the degree-based greedy heuristic (Algorithm 5).

Starting from the highest-degree vertex, the heuristic repeatedly adds the
highest-degree candidate of the attribute currently in the minority, shrinking
the candidate set to the common neighbourhood after every addition, and
finally trims the grown clique to its best fair subset.  Runs in O(|V| + |E|)
time: every vertex is considered at most once as a candidate and the candidate
set only shrinks.
"""

from __future__ import annotations

from repro.graph.attributed_graph import AttributedGraph
from repro.heuristic.greedy_core import fair_clique_on_graph


def degree_greedy_fair_clique(
    graph: AttributedGraph,
    k: int,
    delta: int,
    restarts: int = 1,
) -> frozenset:
    """Return the fair clique found by the degree-based greedy (possibly empty).

    Examples
    --------
    >>> from repro.graph import paper_example_graph
    >>> clique = degree_greedy_fair_clique(paper_example_graph(), k=3, delta=1)
    >>> len(clique) >= 6
    True
    """
    return fair_clique_on_graph(
        graph, k, delta, lambda kernel: kernel.degrees, restarts
    )
