"""The pluggable :class:`FairnessModel` layer.

Every fair-clique solver in this package answers the same question — "what is
the largest clique whose attribute composition satisfies a fairness
condition?" — and the four supported conditions (relative / weak / strong /
multi-attribute weak) differ only in a handful of places:

* which attribute **domains** they admit (the binary models require exactly
  two attribute values, the multi-attribute model takes any domain);
* the per-attribute **lower quotas** a fair clique must meet (``k`` of every
  value, for all built-in models);
* the **gap cap** between the two attribute counts (``delta`` for relative,
  ``0`` for strong, unbounded for weak, absent for multi-weak);
* which **reduction stages** soundly preserve every fair clique;
* which **bound stack** is sound for pruning (the Table II stacks encode the
  binary gap arithmetic; the multi-attribute model falls back to the
  attribute-free color bound);
* which **heuristic** seeds the incumbent.

A :class:`FairnessModel` captures exactly those decisions once, and the
search/reduction/parallel layers consume them generically — the kernel
branch-and-bound (:class:`repro.kernel.search.KernelBranchAndBound`) and the
parallel shard planner (:func:`repro.parallel.sharding.plan_shards`) never
branch on model names.  Adding a new model means writing one small class
here, not porting another copy of the solver.

Solvers work with an :class:`ActiveModel` — the model *bound* to a concrete
attribute domain (always the domain of the original input graph, so a
reduction that happens to eliminate every vertex of one value cannot silently
relax the fairness condition) and to a resolved bound stack.  Active models
are immutable plain data, so the parallel executor ships them to worker
processes as part of the one-time pool payload.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.bounds.base import BoundStack
from repro.exceptions import InvalidParameterError
from repro.graph.validation import validate_parameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.attributed_graph import AttributedGraph, Vertex

#: Reduction stages sound for the binary models (Algorithm 2, lines 1-3).
BINARY_STAGES: tuple[str, ...] = ("EnColorfulCore", "ColorfulSup", "EnColorfulSup")

#: Reduction stages sound for any attribute domain: the colorful
#: ``(k-1)``-core generalises verbatim (every member of a fair clique has, for
#: every value, at least ``k-1`` distinct colors among its neighbours of that
#: value), while the support peels and the enhanced core encode binary
#: only-a/only-b/mixed arithmetic and stay binary-exclusive.
MULTI_STAGES: tuple[str, ...] = ("ColorfulCore",)


@dataclass(frozen=True)
class ActiveModel:
    """A :class:`FairnessModel` bound to one attribute domain and bound stack.

    This is the object the hot paths actually read: plain scalars and tuples,
    no graph references, picklable for the parallel executor.

    Attributes
    ----------
    spec:
        The underlying model.
    domain:
        The attribute values of the *original* input graph, in the canonical
        sorted order.  Counts arrays everywhere are indexed by position in
        this tuple; a value eliminated by reduction simply contributes an
        all-zero mask, so its quota can never be met.
    lower:
        Per-domain-value lower quotas (``k`` each for the built-in models).
    gap:
        Cap on ``|cnt(a) - cnt(b)|`` for binary models, ``None`` when the
        model has no gap constraint.  Only ever non-None on two-value domains.
    bound_delta:
        The ``delta`` fed into the Table II bound formulas (the historic
        "unbounded" encoding ``max(n, 1)`` for the weak model, ``0``
        otherwise when the model is gap-free).
    min_size:
        Smallest size any fair clique can have (``sum(lower)``).
    bound_stack:
        The resolved pruning stack (``None`` disables bound pruning).
    """

    spec: "FairnessModel"
    domain: tuple[str, ...]
    lower: tuple[int, ...]
    gap: Optional[int]
    bound_delta: int
    min_size: int
    bound_stack: Optional[BoundStack] = field(default=None, compare=False)

    @property
    def name(self) -> str:
        """The model name (``"relative"``, ``"weak"``, …)."""
        return self.spec.name

    @property
    def quota(self) -> int:
        """The uniform per-attribute quota ``k`` of the underlying model."""
        return self.spec.k

    @property
    def num_values(self) -> int:
        """Number of attribute values in the bound domain."""
        return len(self.domain)

    def is_fair_counts(self, counts: Sequence[int]) -> bool:
        """Feasibility of an attribute histogram given as per-domain counts."""
        for count, quota in zip(counts, self.lower):
            if count < quota:
                return False
        if self.gap is not None and abs(counts[0] - counts[1]) > self.gap:
            return False
        return True

    def is_fair_histogram(self, histogram: Mapping[str, int]) -> bool:
        """Feasibility of a ``{value: count}`` attribute histogram."""
        return self.is_fair_counts(
            [histogram.get(value, 0) for value in self.domain]
        )

    def kernel_masks(self, kernel) -> tuple[int, ...]:
        """Per-domain-value vertex bitsets of a kernel snapshot.

        The kernel's attribute masks are indexed by *its* codes; this remaps
        them onto the model's domain order.  A domain value the reduction
        eliminated from the snapshot keeps an all-zero mask, so its quota
        can never be met — which is exactly the sound outcome.
        """
        mask_of = {
            value: kernel.attr_masks[code]
            for code, value in enumerate(kernel.attribute_values)
        }
        return tuple(mask_of.get(value, 0) for value in self.domain)

    def view_slots(self, view) -> tuple[tuple[int, ...], list[int]]:
        """Per-domain local masks and per-position domain codes of a view.

        Returns ``(masks, codes)`` where ``masks[slot]`` is the view-local
        bitset of domain value ``slot`` and ``codes[p]`` is the domain slot
        of local position ``p``.  Unlike :meth:`kernel_masks` this direction
        cannot degrade gracefully — a vertex whose attribute value is
        *outside* the domain has no quota slot to count toward — so a
        too-narrow domain is rejected loudly instead of miscounting.
        """
        slot_of = {value: index for index, value in enumerate(self.domain)}
        kernel_values = view.kernel.attribute_values
        slots = []
        for value in kernel_values:
            slot = slot_of.get(value)
            if slot is None:
                raise InvalidParameterError(
                    f"attribute value {value!r} of the search graph is not in "
                    f"the model's domain {self.domain!r}; bind the model to "
                    "the original graph's attribute values"
                )
            slots.append(slot)
        masks = [0] * len(self.domain)
        for code, slot in enumerate(slots):
            masks[slot] |= view.attr_masks[code]
        codes = [slots[code] for code in view.attr_codes]
        return tuple(masks), codes


class FairnessModel:
    """Base class of the pluggable fairness models.

    Subclasses set :attr:`name` and :attr:`requires_binary`, provide the
    quota/gap data through :meth:`bind`, and may override the reduction /
    bound-stack / heuristic hooks.  See :class:`MultiWeakFairness` for the
    smallest complete example.
    """

    #: Model identifier, matching :data:`repro.api.query.MODELS`.
    name: str = ""
    #: True when the model is defined only on two-value attribute domains.
    requires_binary: bool = True

    def __init__(self, k: int) -> None:
        validate_parameters(k, 0)
        self.k = k

    # ------------------------------------------------------------------ #
    # Domain admission
    # ------------------------------------------------------------------ #
    def admits(self, graph: "AttributedGraph") -> bool:
        """True when a fair clique could exist on this graph's attribute domain."""
        values = graph.attribute_values()
        if self.requires_binary:
            return len(values) == 2
        return len(values) >= 1

    def domain_of(self, graph: "AttributedGraph") -> tuple[str, ...]:
        """The attribute domain the search is defined over (the input graph's)."""
        return graph.attribute_values()

    # ------------------------------------------------------------------ #
    # Quota / gap structure
    # ------------------------------------------------------------------ #
    def lower_quotas(self, num_values: int) -> tuple[int, ...]:
        """Per-value lower quotas: every built-in model demands ``k`` of each."""
        return (self.k,) * num_values

    def gap_cap(self) -> Optional[int]:
        """Cap on the binary attribute-count gap (``None`` = unconstrained)."""
        return None

    def bound_delta_value(self) -> int:
        """The ``delta`` plugged into the Table II bound formulas."""
        gap = self.gap_cap()
        return 0 if gap is None else gap

    # ------------------------------------------------------------------ #
    # Solver-layer hooks
    # ------------------------------------------------------------------ #
    def reduction_stages(self, requested: Sequence[str]) -> tuple[str, ...]:
        """Reduction stages sound for this model (default: pass-through)."""
        return tuple(requested)

    def resolve_bound_stack(
        self, requested: "BoundStack | str | None"
    ) -> Optional[BoundStack]:
        """Map a requested stack (object or Table II name) to a sound stack.

        The search evaluates bounds only on the kernel, so a stack holding a
        bound without a kernel evaluator is refused here, before any solve,
        shard payload or plan is built from it.
        """
        if requested is None:
            return None
        if isinstance(requested, str):
            from repro.bounds.stacks import get_stack

            requested = get_stack(requested)
        from repro.kernel.bounds import KERNEL_BOUNDS

        unknown = [name for name in requested.names if name not in KERNEL_BOUNDS]
        if unknown:
            raise InvalidParameterError(
                f"bound stack holds bound(s) {unknown} with no kernel "
                f"evaluator; supported: {sorted(KERNEL_BOUNDS)}"
            )
        return requested

    def heuristic_seed(self, graph: "AttributedGraph") -> frozenset:
        """A (possibly empty) fair clique used to seed the incumbent."""
        return frozenset()

    def algorithm_name(self, base: str) -> str:
        """Human-readable solver label (``base`` comes from the search config)."""
        return base

    def verify(self, graph: "AttributedGraph", vertices: Iterable["Vertex"]) -> bool:
        """True when ``vertices`` form a fair clique of this model on ``graph``."""
        members = list(dict.fromkeys(vertices))
        if not graph.is_clique(members):
            return False
        active = self.bind(self.domain_of(graph))
        return bool(members) and active.is_fair_histogram(
            graph.attribute_histogram(members)
        )

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(
        self,
        domain: Sequence[str],
        bound_stack: "BoundStack | str | None" = None,
    ) -> ActiveModel:
        """Bind this model to an attribute domain (and resolve its stack)."""
        domain = tuple(domain)
        lower = self.lower_quotas(len(domain))
        return ActiveModel(
            spec=self,
            domain=domain,
            lower=lower,
            gap=self.gap_cap(),
            bound_delta=self.bound_delta_value(),
            min_size=sum(lower),
            bound_stack=self.resolve_bound_stack(bound_stack),
        )

    def activate(
        self,
        graph: "AttributedGraph",
        bound_stack: "BoundStack | str | None" = None,
    ) -> ActiveModel:
        """Convenience: bind against ``graph``'s attribute domain."""
        return self.bind(self.domain_of(graph), bound_stack)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k})"


class RelativeFairness(FairnessModel):
    """The paper's relative fair clique: ``>= k`` per value, gap ``<= delta``."""

    name = "relative"
    requires_binary = True

    def __init__(self, k: int, delta: int) -> None:
        validate_parameters(k, delta)
        super().__init__(k)
        self.delta = delta

    def gap_cap(self) -> Optional[int]:
        return self.delta

    def reduction_stages(self, requested: Sequence[str]) -> tuple[str, ...]:
        return tuple(requested)

    def heuristic_seed(self, graph: "AttributedGraph") -> frozenset:
        from repro.heuristic.heur_rfc import HeurRFC

        return HeurRFC().run(graph, self.k, self.delta).clique

    def verify(self, graph: "AttributedGraph", vertices: Iterable["Vertex"]) -> bool:
        from repro.search.verification import is_relative_fair_clique

        return is_relative_fair_clique(graph, vertices, self.k, self.delta)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, delta={self.delta})"


class WeakFairness(RelativeFairness):
    """Weak fair clique: ``>= k`` per value, no cap on the imbalance.

    Implemented as the relative model with the historic "unbounded delta"
    encoding (``delta = max(n, 1)`` of the original graph) so every decision
    — including the Table II bound values, which take ``delta`` as an
    additive term — is bit-for-bit what the pre-model-layer weak solver
    computed.
    """

    name = "weak"

    def __init__(self, k: int, unbounded_delta: int) -> None:
        super().__init__(k, max(unbounded_delta, 1))


class StrongFairness(RelativeFairness):
    """Strong fair clique: exactly equal attribute counts, each ``>= k``."""

    name = "strong"

    def __init__(self, k: int) -> None:
        super().__init__(k, 0)


class MultiWeakFairness(FairnessModel):
    """The weak condition generalised to any attribute domain.

    The smallest complete model: any domain admitted, ``k`` of every value,
    no gap notion — so the reduction keeps only the (d-ary) colorful core and
    the bound stack keeps only the attribute-free color bound.
    """

    name = "multi_weak"
    requires_binary = False

    def reduction_stages(self, requested: Sequence[str]) -> tuple[str, ...]:
        return MULTI_STAGES

    #: Bounds whose value never reads attributes — sound on any domain:
    #: size, color, scope degeneracy, scope h-index, and the colorful path
    #: (colors + the vertex order only).
    ATTRIBUTE_FREE_BOUNDS = frozenset({"ubs", "ubc", "ub_deg", "ub_h", "ubcp"})

    def resolve_bound_stack(
        self, requested: "BoundStack | str | None"
    ) -> Optional[BoundStack]:
        if requested is None:
            return None
        resolved = super().resolve_bound_stack(requested)
        if resolved is not None and all(
            name in self.ATTRIBUTE_FREE_BOUNDS for name in resolved.names
        ):
            # An explicitly attribute-free stack is sound as-is.
            return resolved
        from repro.bounds.simple import UB_COLOR, UB_SIZE

        # The Table II stacks encode binary gap arithmetic; substitute the
        # attribute-free core (the exact engine notes the substitution in
        # the report metadata).
        return BoundStack((UB_SIZE, UB_COLOR))

    def heuristic_seed(self, graph: "AttributedGraph") -> frozenset:
        from repro.variants.multi_attribute import greedy_multi_weak_fair_clique

        return greedy_multi_weak_fair_clique(graph, self.k)

    def algorithm_name(self, base: str) -> str:
        return base.replace("MaxRFC", "MaxMWFC").replace("HeurRFC", "GreedyMW")

    def verify(self, graph: "AttributedGraph", vertices: Iterable["Vertex"]) -> bool:
        from repro.variants.multi_attribute import is_multi_attribute_weak_fair_clique

        return is_multi_attribute_weak_fair_clique(graph, vertices, self.k)


def make_model(
    name: str,
    k: int,
    delta: Optional[int] = None,
    graph: "AttributedGraph | None" = None,
) -> FairnessModel:
    """Build the built-in model called ``name``.

    ``delta`` is required for (and only for) the relative model.  ``graph``
    is consulted only by the weak model, whose historic unbounded-delta
    encoding is the original graph's vertex count.
    """
    if name == "relative":
        if delta is None:
            raise InvalidParameterError("the relative model requires a delta value")
        return RelativeFairness(k, delta)
    if delta is not None:
        raise InvalidParameterError(
            f"model {name!r} does not take a delta (got {delta!r})"
        )
    if name == "weak":
        if graph is None:
            # Silently defaulting the unbounded-delta encoding would make
            # the weak model behave like a tight relative model and return
            # wrong answers; the caller must supply the graph the bound is
            # taken from (or construct WeakFairness with an explicit value).
            raise InvalidParameterError(
                "the weak model's unbounded-gap encoding is the input "
                "graph's vertex count; pass graph= to make_model (or build "
                "WeakFairness(k, unbounded_delta) directly)"
            )
        return WeakFairness(k, graph.num_vertices)
    if name == "strong":
        return StrongFairness(k)
    if name == "multi_weak":
        return MultiWeakFairness(k)
    raise InvalidParameterError(
        f"unknown fairness model {name!r}; expected one of "
        "('relative', 'weak', 'strong', 'multi_weak')"
    )
