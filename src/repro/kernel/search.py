"""The bitset branch-and-bound core of the exact fair-clique search.

This is the hot path of the whole package.  One :class:`KernelBranchAndBound`
instance explores one rank-ordered connected component through a
:class:`~repro.kernel.view.SubgraphView`, and every per-branch set operation
is integer bit arithmetic.

* **The root loop** visits positions in descending CalColorOD rank (big
  colorful cores first, so the incumbent grows early), and root ``p`` draws
  its candidates from its neighbours at higher positions
  (``adj[p] & (-1 << (p + 1))``).  Every clique is thus assembled from its
  lowest-ranked member, and disjoint root masks split a component into
  disjoint subtrees (:meth:`KernelBranchAndBound.run`).
* **Below the root the loop is coloring-ordered** (MCQ: Tomita and Seki,
  DMTCS 2003; BBMC: San Segundo et al., Computers & OR 2011).  A node's
  candidate mask is greedy-colored once, one maximal independent set at a
  time from the highest position down, and the node branches on the
  classes from the highest color down.  A vertex leaves the node's
  ``remaining`` mask once it has been branched on, and its child's
  candidates are ``remaining & adj[p]``: all colored below ``p``'s class
  ``c``.  So one coloring bounds every child with the paper's color bounds
  (Section IV, Lemmas 7-9) plus R's attribute counts.  With ``A``/``B``
  the classes in ``1..c`` holding only value 0 / only value 1, ``M`` the
  mixed ones, and ``t`` the size to beat, the child is pruned when some
  value's quota is out of reach (``cnt_i(R)`` plus the classes holding
  ``i``), when ``|R| + c <= t``, or, on gap-capped models, when
  ``2 * bsv(A + cnt_0(R), B + cnt_1(R), M) + gap <= t`` (ubeac).  These
  only fall as ``c`` falls, so the first prune ends the node's loop.
  Without a bound stack (the plain MaxRFC baseline of Figs. 6-7) the loop
  keeps the same order and stops only when ``|R| + |remaining|`` cannot
  beat the incumbent.

The fairness condition itself comes from an
:class:`~repro.models.base.ActiveModel`: per-attribute-value lower quotas,
the optional binary gap cap, the minimum feasible clique size, and the bound
stack.  The search consumes only that data — it never branches on model
names or stack configurations, so every model (including the multi-attribute
weak model over any domain size) runs through this one implementation.
The stack itself is evaluated only at the root and at depths below
:data:`BOUND_DEPTH`.  Below the root it reads the child's own coloring,
extended by one singleton class per member of R (each is adjacent to every
candidate and to the others), so it costs no second coloring; only the
root's one evaluation per component colors its scope in the package's
degree order.

Structurally the recursion is *child-inlined*: a child's prologue (record
the clique, size/attribute/fairness prunes, its coloring and color-size
prune, then the bound stack) is evaluated inline in the parent's loop, and a
Python call is spent only on children that survive it.  The root and the
deeper levels share that prologue and differ only in the ``(vertex, candidate
mask)`` pairs their generators yield and in when they stop.

The traversal order is deterministic, so a patched kernel and a fresh
compile of the same graph return the *same clique* with the same statistics
counters (pinned by ``tests/test_incremental/test_fuzz.py``), and the
optimum's size is checked against an independent brute-force oracle
(``tests/test_search/test_oracle_fuzz.py``) and against planted optima
(``tests/test_search/test_planted_grid.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.cores.enhanced import balanced_split_value
from repro.kernel.bitops import bits_list
from repro.kernel.bounds import stack_prunes
from repro.kernel.view import SubgraphView
from repro.models.base import ActiveModel
from repro.search.statistics import SearchStats

#: The bound stack runs at the root and on the nodes below it with fewer
#: than this many clique members: with 2, each first-vertex branch that
#: survives the color-size prune, the paper's "when selecting vertices to
#: be added to R for the first time".
BOUND_DEPTH = 2


class KernelBranchAndBound:
    """Branch-and-bound over one component view with a shared incumbent.

    ``model`` is the bound fairness model; its quotas/gap/bound-stack drive
    every fairness decision.  ``check_budget`` is called once per branch with
    the stats object and must raise to abort the search (time/branch budget);
    the incumbent survives the abort because it lives on this object.
    ``has_budget=False`` skips the callback entirely (it would be a no-op),
    sparing two calls per node.

    The serial search and the parallel executor (:mod:`repro.parallel`) run
    the same :meth:`run`; a shard of a split component passes the mask of
    its root positions.  Two hooks serve the executor's shared incumbent:
    ``on_improve`` is invoked with the new incumbent size whenever a larger
    fair clique is recorded (a worker publishes it to the shared incumbent
    channel), and ``best_size`` may be raised *externally* mid-search (from a
    ``check_budget`` callback polling that channel) to tighten the pruning
    threshold — raising the size without a clique is sound because the search
    only ever records cliques strictly larger than ``best_size``.
    """

    __slots__ = (
        "view",
        "model",
        "lower",
        "gap",
        "min_size",
        "num_values",
        "domain_masks",
        "domain_codes",
        "stats",
        "bound_stack",
        "check_budget",
        "has_budget",
        "best_size",
        "best_clique",
        "on_improve",
    )

    def __init__(
        self,
        view: SubgraphView,
        model: ActiveModel,
        stats: SearchStats,
        check_budget: Callable[[SearchStats], None],
        best_size: int,
        best_clique: frozenset,
        has_budget: bool = True,
        on_improve: Callable[[int], None] | None = None,
    ) -> None:
        self.view = view
        self.model = model
        self.lower = model.lower
        self.gap = model.gap
        self.min_size = model.min_size
        self.num_values = len(model.domain)
        self.stats = stats
        self.bound_stack = model.bound_stack
        self.check_budget = check_budget
        self.has_budget = has_budget
        self.best_size = best_size
        self.best_clique = best_clique
        self.on_improve = on_improve
        # The view's attribute masks are indexed by the *kernel's* attribute
        # codes; the model's quota arrays are indexed by its *domain*, which
        # is the original graph's (a superset when reduction eliminated a
        # value entirely).  The model owns the remap — and rejects a domain
        # narrower than the kernel's values, which would have no quota slot
        # to count those vertices toward.
        self.domain_masks, self.domain_codes = model.view_slots(view)

    def run(self, roots: int | None = None) -> tuple[int, frozenset]:
        """Explore the component; return the (possibly improved) incumbent.

        ``roots`` optionally restricts the depth-0 loop to the positions set
        in that mask: only the subtrees whose first clique member is one of
        them are searched, while their children still draw candidates from
        the whole component.  The root loop decomposes into one independent
        subtree per position, so the subtrees of disjoint masks together
        cover exactly what ``run()`` covers — this is how the parallel
        executor splits one oversized component across workers.
        """
        # Root prologue (R = {}, C = every vertex), then expand.
        stats = self.stats
        stats.branches_explored += 1
        if self.has_budget:
            self.check_budget(stats)
        cand_mask = self.view.full_mask
        if not cand_mask:
            return self.best_size, self.best_clique
        num_candidates = cand_mask.bit_count()
        limit = self.best_size + 1
        if limit < self.min_size:
            limit = self.min_size
        if num_candidates < limit:
            stats.pruned_by_size += 1
            return self.best_size, self.best_clique
        lower = self.lower
        masks = self.domain_masks
        rest = num_candidates
        feasible = True
        for i in range(self.num_values - 1):
            count = (cand_mask & masks[i]).bit_count()
            rest -= count
            if count < lower[i]:
                feasible = False
                break
        if feasible and rest < lower[-1]:
            feasible = False
        if not feasible:
            stats.pruned_by_attribute_feasibility += 1
            return self.best_size, self.best_clique
        stack = self.bound_stack
        if stack is not None:
            stats.bound_evaluations += 1
            if stack_prunes(
                self.view, stack, 0, cand_mask,
                self.model.quota, self.model.bound_delta,
                max(self.min_size - 1, self.best_size),
            ):
                stats.pruned_by_bound += 1
                return self.best_size, self.best_clique
        self._expand(0, [0] * self.num_values, cand_mask, 0, roots=roots)
        return self.best_size, self.best_clique

    def _root_children(
        self, cand_mask: int, roots: int | None,
    ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(p, bit, candidates)`` for the root loop.

        Positions in descending rank, restricted to ``roots``; root ``p``
        draws its candidates from its neighbours at higher positions, so
        ``n - p`` bounds the size of any clique it roots.
        """
        stats = self.stats
        adj = self.view.adj
        n = self.view.n
        floor = self.min_size - 1
        mask = cand_mask if roots is None else cand_mask & roots
        while mask:
            p = mask.bit_length() - 1
            low = 1 << p
            mask ^= low
            if n - p <= max(self.best_size, floor):
                stats.pruned_by_incumbent += 1
                continue
            yield p, low, cand_mask & adj[p] & (-1 << (p + 1))

    def _colored_children(
        self, counts_r: list[int], cand_mask: int, classes: list[int], size_r: int,
    ) -> Iterator[tuple[int, int, int]]:
        """Yield ``(p, bit, candidates)`` for a below-root node, by color.

        ``classes`` is the node's coloring (see :meth:`_expand`); they are
        visited from the highest down, each from its highest position.  With
        a bound stack the first child the color bound dismisses ends the
        loop; without one, only ``|R| + |remaining|`` can.  ``counts_r``
        holds R's counts whenever the generator resumes (the caller undoes
        its child).
        """
        stats = self.stats
        adj = self.view.adj
        masks = self.domain_masks
        lower = self.lower
        gap = self.gap
        floor = self.min_size - 1
        num_values = self.num_values
        color_bound = self.bound_stack is not None
        if color_bound:
            # held[i]: how many of the classes 1..c hold domain value i.
            held = [0] * num_values
            for color_class in classes:
                for i in range(num_values):
                    if color_class & masks[i]:
                        held[i] += 1
        remaining = cand_mask
        for c in range(len(classes), 0, -1):
            color_class = classes[c - 1]
            if color_bound:
                for i in range(num_values):
                    if counts_r[i] + held[i] < lower[i]:
                        stats.pruned_by_attribute_feasibility += 1
                        return
                balance_bound = size_r + c
                if gap is not None:
                    mixed = held[0] + held[1] - c
                    balance_bound = gap + 2 * balanced_split_value(
                        counts_r[0] + held[0] - mixed,
                        counts_r[1] + held[1] - mixed,
                        mixed,
                    )
                for i in range(num_values):
                    if color_class & masks[i]:
                        held[i] -= 1
            members = color_class
            while members:
                p = members.bit_length() - 1
                low = 1 << p
                members ^= low
                best = max(self.best_size, floor)
                if color_bound:
                    if size_r + c <= best:
                        stats.pruned_by_incumbent += 1
                        return
                    if balance_bound <= best:
                        stats.pruned_by_fairness_gap += 1
                        return
                elif size_r + remaining.bit_count() <= best:
                    stats.pruned_by_incumbent += 1
                    return
                remaining ^= low
                yield p, low, remaining & adj[p]

    def _expand(
        self,
        clique_mask: int,
        counts_r: list[int],
        cand_mask: int,
        size_r: int,
        classes: list[int] | None = None,
        roots: int | None = None,
    ) -> None:
        """Iterate the children of a node that already survived its prologue.

        Every child's prologue — counters, budget, fairness record, size /
        attribute-feasibility / fairness-gap prunes, the coloring of its
        candidates and the color-size prune, then the bound stack over that
        coloring — runs inline here; only children that reach their own
        candidate loop recurse.
        ``counts_r`` holds the per-domain-value attribute counts of R and is
        shared down the recursion mutate-then-undo style, so no per-node
        allocation happens for the clique side.  ``classes`` is the coloring
        of ``cand_mask`` below the root: a child's prologue colors its
        candidates once, so a child whose colors cannot beat the incumbent
        never costs a call.  ``roots`` (root only, ``size_r == 0``) masks
        the positions the root loop iterates; see :meth:`run`.
        """
        stats = self.stats
        view = self.view
        masks = self.domain_masks
        code_of = self.domain_codes
        lower = self.lower
        gap = self.gap
        min_size = self.min_size
        num_values = self.num_values
        last = num_values - 1
        # Two-value domains (every binary model, and multi_weak on binary
        # graphs) keep the historic all-scalar arithmetic: one popcount and
        # no per-node count arrays.  This is an *arity* specialisation of
        # the same decision procedure, not a model branch — wider domains
        # take the generic per-value loop below with identical semantics.
        binary = num_values == 2
        if binary:
            mask_0 = masks[0]
            lower_0 = lower[0]
            lower_1 = lower[1]
        has_budget = self.has_budget
        stack = self.bound_stack
        non_adj = view.non_adj
        child_size = size_r + 1
        child_bounded = stack is not None and child_size < BOUND_DEPTH
        children = (
            self._root_children(cand_mask, roots) if classes is None
            else self._colored_children(counts_r, cand_mask, classes, size_r)
        )
        for p, low, new_cand in children:
            # ---------------- child prologue, inline ---------------- #
            stats.branches_explored += 1
            if has_budget:
                self.check_budget(stats)
            code = code_of[p]
            counts_r[code] += 1
            if child_size > self.best_size:
                if binary:
                    child_0 = counts_r[0]
                    child_1 = counts_r[1]
                    fair = (
                        child_0 >= lower_0
                        and child_1 >= lower_1
                        and (gap is None or abs(child_0 - child_1) <= gap)
                    )
                else:
                    fair = True
                    for i in range(num_values):
                        if counts_r[i] < lower[i]:
                            fair = False
                            break
                    if fair and gap is not None and abs(counts_r[0] - counts_r[1]) > gap:
                        fair = False
                if fair:
                    self.best_size = child_size
                    self.best_clique = view.frozenset_of(clique_mask | low)
                    stats.solutions_found += 1
                    if self.on_improve is not None:
                        self.on_improve(child_size)
            if not new_cand:
                counts_r[code] -= 1
                continue
            num_candidates = new_cand.bit_count()
            limit = self.best_size + 1
            if limit < min_size:
                limit = min_size
            if child_size + num_candidates < limit:
                stats.pruned_by_size += 1
                counts_r[code] -= 1
                continue
            # Per-value candidate counts: d-1 popcounts, the last by
            # subtraction (one popcount and all-scalar on binary domains).
            if binary:
                child_0 = counts_r[0]
                child_1 = counts_r[1]
                count_c_0 = (new_cand & mask_0).bit_count()
                count_c_1 = num_candidates - count_c_0
                if child_0 + count_c_0 < lower_0 or child_1 + count_c_1 < lower_1:
                    stats.pruned_by_attribute_feasibility += 1
                    counts_r[code] -= 1
                    continue
                if gap is not None and (
                    child_0 > child_1 + count_c_1 + gap
                    or child_1 > child_0 + count_c_0 + gap
                ):
                    stats.pruned_by_fairness_gap += 1
                    counts_r[code] -= 1
                    continue
            else:
                rest = num_candidates
                feasible = True
                if last:
                    counts_c = [0] * num_values
                    for i in range(last):
                        count = (new_cand & masks[i]).bit_count()
                        counts_c[i] = count
                        rest -= count
                        if counts_r[i] + count < lower[i]:
                            feasible = False
                            break
                    counts_c[last] = rest
                else:
                    counts_c = [rest]
                if feasible and counts_r[last] + rest < lower[last]:
                    feasible = False
                if not feasible:
                    stats.pruned_by_attribute_feasibility += 1
                    counts_r[code] -= 1
                    continue
                if gap is not None and (
                    counts_r[0] > counts_r[1] + counts_c[1] + gap
                    or counts_r[1] > counts_r[0] + counts_c[0] + gap
                ):
                    stats.pruned_by_fairness_gap += 1
                    counts_r[code] -= 1
                    continue
            # Greedy-color the child's candidates (BBMC): peel one maximal
            # independent set at a time, highest position first.
            child_classes = []
            uncolored = new_cand
            while uncolored:
                q = uncolored
                color_class = 0
                while q:
                    v = q.bit_length() - 1
                    color_class |= 1 << v
                    q &= non_adj[v]
                uncolored ^= color_class
                child_classes.append(color_class)
            if stack is not None and child_size + len(child_classes) < limit:
                stats.pruned_by_incumbent += 1
                counts_r[code] -= 1
                continue
            child_clique = clique_mask | low
            if child_bounded:
                stats.bound_evaluations += 1
                # R + p is a clique adjacent to every candidate, so one
                # singleton class per member extends the candidates'
                # coloring to a proper coloring of the whole scope.
                if stack_prunes(
                    view, stack, child_clique, new_cand,
                    self.model.quota, self.model.bound_delta, limit - 1,
                    child_classes + [1 << q for q in bits_list(child_clique)],
                ):
                    stats.pruned_by_bound += 1
                    counts_r[code] -= 1
                    continue
            self._expand(
                child_clique, counts_r, new_cand, child_size, child_classes,
            )
            counts_r[code] -= 1
