"""Common infrastructure for the upper bounds of Section IV.

Every bound estimates ``MRFC(R, C)`` — the size of the largest relative fair
clique inside the search instance ``(R, C)`` — from above.  A branch can be
discarded when its bound shows it cannot beat the incumbent nor reach the
minimum feasible fair-clique size ``2k``.

Implementation note on soundness
--------------------------------
A handful of lemma statements in the paper are written without the customary
"+1" corrections (for instance Lemma 10 states ``ub_△ = degeneracy(G')``,
which a triangle already violates since its degeneracy is 2 but its maximum
clique has 3 vertices).  Because this reproduction verifies the exact search
against a brute-force oracle, the bounds here are implemented in provably
sound form — same quantities, same computational cost, with the small additive
corrections required for correctness.  The deviations are listed in
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable

from repro.coloring.greedy import Coloring, greedy_coloring
from repro.graph.attributed_graph import AttributedGraph, Vertex


@dataclass(frozen=True)
class BoundContext:
    """Everything a bound needs about one search instance ``(R, C)``.

    The context owns a proper coloring of the induced subgraph on ``R ∪ C``
    (computed lazily and shared across all bounds evaluated on the instance)
    plus the fairness parameters.
    """

    graph: AttributedGraph
    clique: frozenset
    candidates: frozenset
    k: int
    delta: int
    attribute_a: str
    attribute_b: str
    _coloring_cache: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def scope(self) -> frozenset:
        """The vertex set ``R ∪ C`` the bound is evaluated on."""
        return self.clique | self.candidates

    def coloring(self) -> Coloring:
        """A proper greedy coloring of the induced subgraph on ``R ∪ C`` (cached)."""
        if "coloring" not in self._coloring_cache:
            self._coloring_cache["coloring"] = greedy_coloring(self.graph, self.scope)
        return self._coloring_cache["coloring"]

    def attribute_counts(self) -> tuple[int, int]:
        """Return ``(cnt_{R∪C}(a), cnt_{R∪C}(b))``."""
        if "counts" not in self._coloring_cache:
            count_a = 0
            count_b = 0
            for vertex in self.scope:
                if self.graph.attribute(vertex) == self.attribute_a:
                    count_a += 1
                else:
                    count_b += 1
            self._coloring_cache["counts"] = (count_a, count_b)
        return self._coloring_cache["counts"]


def make_context(
    graph: AttributedGraph,
    clique: Iterable[Vertex],
    candidates: Iterable[Vertex],
    k: int,
    delta: int,
) -> BoundContext:
    """Build a :class:`BoundContext` for the instance ``(R, C)``.

    Raises :class:`~repro.exceptions.AttributeCountError` on non-binary
    graphs: every attribute-aware bound (Lemmas 6, 8-9 and the colorful
    family) encodes two-sided arithmetic, and silently lumping extra values
    into side *b* would produce bounds smaller than the optimum.  The
    search evaluates bounds on the kernel (:mod:`repro.kernel.bounds`),
    where wider domains run attribute-free bounds only.
    """
    attribute_a, attribute_b = graph.attribute_pair()
    return BoundContext(
        graph=graph,
        clique=frozenset(clique),
        candidates=frozenset(candidates),
        k=k,
        delta=delta,
        attribute_a=attribute_a,
        attribute_b=attribute_b,
    )


BoundFunction = Callable[[BoundContext], int]


@dataclass(frozen=True)
class UpperBound:
    """A named upper bound on ``MRFC(R, C)``.

    Attributes
    ----------
    name:
        Identifier used in experiment tables (``"ubs"``, ``"ubcd"``…).
    compute:
        Function mapping a :class:`BoundContext` to an integer bound.
    cost_rank:
        Rough relative cost (lower = cheaper); a bound stack evaluates cheap
        bounds first so it can stop as soon as a bound already prunes.
    """

    name: str
    compute: BoundFunction
    cost_rank: int = 0

    def __call__(self, context: BoundContext) -> int:
        return self.compute(context)


class BoundStack:
    """The minimum of a set of upper bounds, evaluated cheapest-first.

    ``evaluate`` returns the smallest bound value; ``prunes`` additionally
    short-circuits as soon as any bound already falls at or below the pruning
    threshold, which is how the branch-and-bound uses bounds in practice.
    """

    def __init__(self, bounds: Iterable[UpperBound]) -> None:
        self.bounds = tuple(sorted(bounds, key=lambda bound: bound.cost_rank))
        if not self.bounds:
            raise ValueError("BoundStack needs at least one bound")

    @property
    def names(self) -> tuple[str, ...]:
        """Names of the stacked bounds in evaluation order."""
        return tuple(bound.name for bound in self.bounds)

    def evaluate(self, context: BoundContext) -> int:
        """Return ``min`` over all stacked bounds for the given instance."""
        return min(bound(context) for bound in self.bounds)

    def prunes(self, context: BoundContext, threshold: int) -> bool:
        """Return True if some bound is ``<= threshold`` (branch can be discarded)."""
        for bound in self.bounds:
            if bound(context) <= threshold:
                return True
        return False

    def __repr__(self) -> str:
        return f"BoundStack({' + '.join(self.names)})"


def bound_value(
    bound: UpperBound,
    graph: AttributedGraph,
    clique: Iterable[Vertex],
    candidates: Iterable[Vertex],
    k: int,
    delta: int,
) -> int:
    """Convenience wrapper: evaluate a single bound on ``(R, C)`` without a stack."""
    return bound(make_context(graph, clique, candidates, k, delta))
