"""Weak fair cliques over graphs with more than two attribute values.

The paper (and this package's core) restricts the relative fair clique model
to binary attributes, but the weak fairness condition — *every* attribute
value appears at least ``k`` times — generalises naturally to an arbitrary
attribute domain, and the related fair-clique literature studies exactly that
generalisation.  Since the :class:`~repro.models.base.MultiWeakFairness`
model plugged the generalisation into the shared solver stack, this module is
a thin compatibility layer:

* :func:`is_multi_attribute_weak_fair_clique` — verification for any number of
  attribute values;
* :func:`brute_force_maximum_multi_weak_fair_clique` — an exhaustive oracle
  built on Bron–Kerbosch (a maximal clique is its own best weak-fair subset);
* :func:`find_maximum_multi_weak_fair_clique` — wrapper over the unified
  :class:`~repro.search.maxrfc.MaxRFC` solver with the ``multi_weak`` model
  (the historic dict-only ``MultiAttributeWeakFairCliqueSearch`` class is
  retired: the kernel branch-and-bound, the reduction pipeline, and the
  parallel executor all speak the model natively now);
* :func:`greedy_multi_weak_fair_clique` — a linear-time greedy in the spirit
  of ``DegHeur`` that cycles through the attribute values round-robin; it
  backs the ``(multi_weak, heuristic)`` engine pair and the exact solver's
  incumbent seed.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.baselines.bron_kerbosch import enumerate_maximal_cliques
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph, Vertex
from repro.search.statistics import SearchStats


def _validate_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")


def is_multi_attribute_weak_fair_clique(
    graph: AttributedGraph,
    vertices: Iterable[Vertex],
    k: int,
) -> bool:
    """Return True if ``vertices`` form a clique with >= k members of every attribute value."""
    _validate_k(k)
    members = list(dict.fromkeys(vertices))
    if not graph.is_clique(members):
        return False
    histogram = graph.attribute_histogram(members)
    return all(histogram.get(value, 0) >= k for value in graph.attribute_values())


def brute_force_maximum_multi_weak_fair_clique(
    graph: AttributedGraph,
    k: int,
) -> frozenset:
    """Exhaustive oracle: largest maximal clique covering every attribute >= k times."""
    _validate_k(k)
    values = graph.attribute_values()
    if not values:
        return frozenset()
    best: frozenset = frozenset()
    for clique in enumerate_maximal_cliques(graph):
        if len(clique) <= len(best):
            continue
        histogram = graph.attribute_histogram(clique)
        if all(histogram.get(value, 0) >= k for value in values):
            best = clique
    return best


@dataclass
class MultiAttributeSearchResult:
    """Result of the multi-attribute weak fair clique search."""

    clique: frozenset
    k: int
    stats: SearchStats = field(default_factory=SearchStats)
    optimal: bool = True

    @property
    def size(self) -> int:
        """Number of vertices in the returned clique."""
        return len(self.clique)

    @property
    def found(self) -> bool:
        """True when a weak fair clique satisfying ``k`` exists."""
        return bool(self.clique)


def find_maximum_multi_weak_fair_clique(
    graph: AttributedGraph,
    k: int,
    time_limit: float | None = None,
) -> MultiAttributeSearchResult:
    """Solve the multi-attribute weak model through the unified solver stack.

    Runs :class:`~repro.search.maxrfc.MaxRFC` with a
    :class:`~repro.models.base.MultiWeakFairness` model — model-sound
    reduction (the d-ary colorful core), the attribute-free bound stack, the
    round-robin greedy seed, and the kernel branch-and-bound.
    """
    _validate_k(k)
    from repro.models.base import MultiWeakFairness
    from repro.search.maxrfc import MaxRFC, build_search_config

    config = build_search_config(time_limit=time_limit)
    result = MaxRFC(config).solve_model(graph, MultiWeakFairness(k))
    return MultiAttributeSearchResult(
        clique=result.clique, k=k, stats=result.stats, optimal=result.optimal,
    )


def greedy_multi_weak_fair_clique(
    graph: AttributedGraph,
    k: int,
    restarts: int = 1,
) -> frozenset:
    """Round-robin greedy heuristic for the multi-attribute weak model.

    Starting from a high-degree vertex, repeatedly add the highest-degree
    candidate of the attribute value currently least represented in the clique
    (falling back to any candidate when that value has none left).  With
    ``restarts > 1`` the growth is retried from that many top-degree start
    vertices (still linear time per restart, mirroring the binary ``DegHeur``
    restarts) and the largest fair clique wins.  Returns an empty frozenset
    when no attempt satisfies the weak fairness condition.
    """
    _validate_k(k)
    if graph.num_vertices == 0:
        return frozenset()
    values = graph.attribute_values()
    # nlargest keeps start selection O(n log restarts) — the seed path runs
    # on every multi_weak exact solve, so a full sort would be wasted work.
    starts = heapq.nlargest(
        max(1, restarts), graph.vertices(),
        key=lambda v: (graph.degree(v), str(v)),
    )
    best: frozenset = frozenset()
    for start in starts:
        clique: set[Vertex] = {start}
        candidates = set(graph.neighbors(start))
        counts = {value: 0 for value in values}
        counts[graph.attribute(start)] += 1
        while candidates:
            needy = min(values, key=lambda value: counts[value])
            pool = [v for v in candidates if graph.attribute(v) == needy] or list(candidates)
            vertex = max(pool, key=lambda v: (graph.degree(v), str(v)))
            clique.add(vertex)
            counts[graph.attribute(vertex)] += 1
            candidates &= graph.neighbors(vertex)
        if len(clique) > len(best) and all(counts[value] >= k for value in values):
            best = frozenset(clique)
    return best
