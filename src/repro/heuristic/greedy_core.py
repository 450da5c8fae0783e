"""Shared greedy machinery for the heuristic fair-clique algorithms (Section V).

Both ``DegHeur`` (degree-based greedy, Algorithm 5) and ``ColorfulDegHeur``
(colorful-degree-based greedy) grow a clique one vertex at a time, alternating
between the two attributes to keep the count difference small, and always
picking the candidate with the highest *score* — plain degree for ``DegHeur``,
``min(D_a, D_b)`` for ``ColorfulDegHeur``.  The only difference between the
two algorithms is the scoring function, so the growth loop lives here and the
public algorithms are thin wrappers.

The greedy expansion may finish with an unbalanced clique; because every
subset of a clique is a clique, the result is post-trimmed to the best fair
subset (majority attribute reduced to ``minority + delta``), which converts a
near-miss into a valid relative fair clique whenever the counts allow it.

Everything runs on the compiled kernel: a *scope* is a vertex bitset (the
part of the graph the greedy may use), scores are arrays indexed by kernel
index, and cliques are bitsets.  :class:`~repro.heuristic.heur_rfc.HeurRFC`
calls the mask functions directly; the graph-level functions are thin
wrappers that run them on the whole graph.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.graph.attributed_graph import AttributedGraph, Vertex
from repro.graph.validation import validate_binary_attributes, validate_parameters
from repro.kernel.bitops import bits_list, iter_bits, mask_from_indices
from repro.kernel.compile import GraphKernel
from repro.search.verification import best_fair_subset_size

ScoreFunction = Callable[[Vertex], float]


def grow_clique_mask(
    kernel: GraphKernel,
    start: int,
    scope: int,
    scores: Sequence[float],
    delta: int,
) -> int:
    """Grow a clique from kernel index ``start`` inside ``scope``.

    At every step the loop prefers the attribute currently in the minority
    inside the clique, and among candidates of that attribute picks the one
    with the highest ``(scores[i], str(id))``.  If no candidate of the
    preferred attribute exists it falls back to the other attribute.  Growth
    stops when the candidate set empties.  The candidate set is a bitset:
    attribute filtering is one AND, and shrinking to the common
    neighbourhood is ``candidates &= adj[winner]``.

    Returns the grown clique's bitset *without* the fairness trim.
    """
    adj = kernel.adj_bits
    attr_codes = kernel.attr_codes
    attr_a_mask = kernel.attr_masks[0]
    tie_keys = kernel.tie_keys

    clique_mask = 1 << start
    candidates = adj[start] & scope
    count_a = 1 if attr_codes[start] == 0 else 0
    count_b = 1 - count_a

    def key(index: int) -> tuple:
        return scores[index], tie_keys[index]

    while candidates:
        minority_is_a = count_a <= count_b
        preferred = candidates & (attr_a_mask if minority_is_a else ~attr_a_mask)
        # Refuse to deepen an imbalance that could never be repaired: adding a
        # majority vertex is pointless once the other side has no candidates
        # left to catch up with.
        if not preferred:
            minority_count = count_a if minority_is_a else count_b
            majority_count = count_b if minority_is_a else count_a
            if majority_count >= minority_count + delta:
                break
        winner = max(iter_bits(preferred or candidates), key=key)
        clique_mask |= 1 << winner
        if attr_codes[winner] == 0:
            count_a += 1
        else:
            count_b += 1
        candidates &= adj[winner]
    return clique_mask


def fair_trim_mask(kernel: GraphKernel, clique: int, k: int, delta: int) -> int:
    """The best fair subset of the clique bitset ``clique`` (0 when none).

    Keeps every vertex of the minority attribute and the ``minority + delta``
    majority vertices with the smallest ``str(id)``, exactly as
    :func:`repro.search.verification.best_fair_subset` does.
    """
    members_a = clique & kernel.attr_masks[0]
    members_b = clique & ~members_a
    count_a = members_a.bit_count()
    count_b = members_b.bit_count()
    if not best_fair_subset_size(count_a, count_b, k, delta):
        return 0
    kept = [
        *sorted(bits_list(members_a), key=kernel.tie_keys.__getitem__)[:count_b + delta],
        *sorted(bits_list(members_b), key=kernel.tie_keys.__getitem__)[:count_a + delta],
    ]
    return mask_from_indices(kept)


def greedy_fair_mask(
    kernel: GraphKernel,
    scope: int,
    k: int,
    delta: int,
    scores: Sequence[float],
    restarts: int = 1,
) -> int:
    """Grow from the ``restarts`` best-scoring vertices of ``scope``; keep the best.

    The paper starts from the single best-scoring vertex; ``restarts > 1`` is
    a cheap robustness extension (still linear time per restart).  Returns
    the largest fair-trimmed clique bitset over all restarts (ties keep the
    earlier start).
    """
    tie_keys = kernel.tie_keys
    starts = sorted(
        bits_list(scope), key=lambda index: (-scores[index], tie_keys[index])
    )[:max(1, restarts)]
    best = 0
    for start in starts:
        fair = fair_trim_mask(
            kernel, grow_clique_mask(kernel, start, scope, scores, delta), k, delta
        )
        if fair.bit_count() > best.bit_count():
            best = fair
    return best


def fair_clique_on_graph(
    graph: AttributedGraph,
    k: int,
    delta: int,
    scores_of: Callable[[GraphKernel], Sequence[float]],
    restarts: int = 1,
) -> frozenset:
    """Run :func:`greedy_fair_mask` on the whole of ``graph``'s kernel.

    ``scores_of(kernel)`` returns the score array; the strategy wrappers
    differ only in it.
    """
    validate_parameters(k, delta)
    if not graph.num_vertices:
        return frozenset()
    validate_binary_attributes(graph)
    kernel = graph.compile()
    mask = greedy_fair_mask(
        kernel, kernel.full_mask, k, delta, scores_of(kernel), restarts
    )
    return kernel.frozenset_of_mask(mask)


def greedy_grow_clique(
    graph: AttributedGraph,
    start: Vertex,
    k: int,
    delta: int,
    score: ScoreFunction,
) -> frozenset:
    """Grow a clique from ``start`` with attribute-alternating greedy selection.

    Graph-level form of :func:`grow_clique_mask`; returns the grown clique
    *without* the fairness trim (see :func:`finalize_fair_clique`).
    """
    validate_binary_attributes(graph)
    kernel = graph.compile()
    scores = [score(vertex) for vertex in kernel.vertex_of]
    mask = grow_clique_mask(
        kernel, kernel.index_of[start], kernel.full_mask, scores, delta
    )
    return kernel.frozenset_of_mask(mask)


def finalize_fair_clique(
    graph: AttributedGraph,
    clique: frozenset,
    k: int,
    delta: int,
) -> frozenset:
    """Trim a clique to its best fair subset (empty when no fair subset exists)."""
    validate_parameters(k, delta)
    validate_binary_attributes(graph)
    kernel = graph.compile()
    return kernel.frozenset_of_mask(
        fair_trim_mask(kernel, kernel.mask_of(clique), k, delta)
    )


def greedy_fair_clique(
    graph: AttributedGraph,
    k: int,
    delta: int,
    score: ScoreFunction,
    restarts: int = 1,
) -> frozenset:
    """Run the greedy growth from the ``restarts`` highest-scoring start vertices.

    Graph-level form of :func:`greedy_fair_mask` on the whole graph.
    """
    return fair_clique_on_graph(
        graph, k, delta,
        lambda kernel: [score(vertex) for vertex in kernel.vertex_of],
        restarts,
    )
