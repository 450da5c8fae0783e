"""Shard planning: turn a kernel snapshot into independent search tasks.

After the Algorithm 2 reduction, the surviving connected components are
independent subproblems — the only coupling left is the shared incumbent,
which only ever *shrinks* work.  A :class:`ShardPlan` lists one task per
component, except that components too large for one worker are split one
branch level deep: the root candidate loop of the branch-and-bound
decomposes into one independent subtree per root position (``R = {p}``,
``C =`` higher-ranked neighbours of ``p``), so the positions of an oversized
component are dealt round-robin into ``max(2, 2 * workers)`` subtree tasks.

Round-robin (rather than contiguous ranges) matters for load balance: the
subtree rooted at position ``p`` only branches over candidates ranked above
``p``, so subtree cost falls sharply with ``p`` — contiguous chunks would
hand one worker all the expensive low-rank roots.

The plan is the only component schedule in the package: the serial search
(:meth:`repro.search.maxrfc.MaxRFC._search_components`) runs the one-worker
plan, in which nothing splits, and every searcher — serial, pool worker or
the coordinator's serial fallback — opens its component through
:func:`component_view`.  The view is a per-solve handle over the layout the
kernel caches (:meth:`~repro.kernel.compile.GraphKernel.component_layout`):
warm re-solves reuse it, and the parallel coordinator fills the cache for
every planned component before its pool forks, so workers inherit it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.attributed_graph import AttributedGraph
from repro.kernel.bitops import bits_list
from repro.kernel.compile import GraphKernel
from repro.kernel.view import SubgraphView
from repro.models.base import ActiveModel
from repro.search.ordering import OrderingStrategy

#: Components at most this large always run as one shard; larger ones split
#: when they hold more than a ``1/workers`` share of the surviving vertices.
SPLIT_THRESHOLD = 96


@dataclass(frozen=True)
class Shard:
    """One unit of parallel work.

    ``root_positions is None`` means "search the whole component";
    otherwise the shard covers exactly the root subtrees at those local
    positions (listed in descending rank, the order the serial root loop
    uses so large colorful cores are explored first).
    """

    index: int
    component_index: int
    component_size: int
    root_positions: tuple[int, ...] | None = None

    @property
    def is_split(self) -> bool:
        """True when this shard is a slice of a split component."""
        return self.root_positions is not None


@dataclass(frozen=True)
class ShardPlan:
    """The full task list for one parallel solve, plus planning telemetry."""

    shards: tuple[Shard, ...]
    components_searched: int
    components_split: int
    components_skipped: int

    def summary(self) -> dict:
        """Plain-data description for stats/metadata reporting."""
        return {
            "shards": len(self.shards),
            "components_searched": self.components_searched,
            "components_split": self.components_split,
            "components_skipped": self.components_skipped,
        }


def plan_shards(
    kernel: GraphKernel,
    model: ActiveModel,
    *,
    incumbent_size: int = 0,
    workers: int = 2,
) -> ShardPlan:
    """Plan the shard list for a compiled (reduced) kernel snapshot.

    Components are filtered with the serial search's prologue arguments —
    too small to beat ``max(model.min_size, incumbent_size + 1)``, or
    lacking the model's per-attribute-value quota — and visited
    biggest-core-first so the pool starts the most promising work
    immediately.  A component is split (into ``max(2, 2 * workers)``
    round-robin root-subtree shards) only when it is both larger than
    :data:`SPLIT_THRESHOLD` *and* too large to balance whole — strictly more
    than a ``1/workers`` share of the surviving vertices, which one worker
    never exceeds.
    Several similar-sized components already balance across the pool by
    themselves; splitting them would only multiply the per-shard root
    prologue and its bound evaluation.
    """
    if not kernel.n:
        return ShardPlan((), 0, 0, 0)
    cores = kernel.core_numbers()
    tie_keys = kernel.tie_keys
    minimum_size = model.min_size
    lower = model.lower
    domain_masks = model.kernel_masks(kernel)
    entries = []
    for component_index, mask in enumerate(kernel.component_masks()):
        members = bits_list(mask)
        entries.append((
            -max(cores[i] for i in members),
            min(tie_keys[i] for i in members),
            component_index,
            mask,
            len(members),
        ))
    entries.sort(key=lambda entry: entry[:2])

    surviving = []
    skipped = 0
    for _, _, component_index, mask, size in entries:
        if size < minimum_size or size <= incumbent_size:
            skipped += 1
            continue
        if any(
            (mask & domain_masks[index]).bit_count() < lower[index]
            for index in range(len(lower))
        ):
            skipped += 1
            continue
        surviving.append((component_index, size))
    total_size = sum(size for _, size in surviving)

    shards: list[Shard] = []
    searched = len(surviving)
    split = 0
    for component_index, size in surviving:
        if size <= SPLIT_THRESHOLD or size * workers <= total_size:
            shards.append(Shard(len(shards), component_index, size))
            continue
        split += 1
        chunks = min(max(2, 2 * workers), size)
        buckets: list[list[int]] = [[] for _ in range(chunks)]
        # Deal descending positions round-robin: bucket i gets the i-th,
        # (i+chunks)-th, ... most expensive roots, keeping chunk costs even.
        for offset, position in enumerate(range(size - 1, -1, -1)):
            buckets[offset % chunks].append(position)
        for bucket in buckets:
            shards.append(Shard(
                len(shards), component_index, size, tuple(bucket),
            ))
    return ShardPlan(tuple(shards), searched, split, skipped)


def component_view(
    kernel: GraphKernel,
    component_index: int,
    ordering: OrderingStrategy,
    graph: AttributedGraph | None = None,
) -> SubgraphView:
    """A per-solve view of one component, over the kernel's cached layout.

    :meth:`~repro.kernel.compile.GraphKernel.component_layout` builds the
    rank-ordered layout once per kernel; ``graph``, the dict graph the
    kernel was compiled from, is read by the layout's first build when the
    ordering is not CalColorOD.
    """
    return SubgraphView(
        kernel, kernel.component_layout(component_index, ordering, graph)
    )
