"""Delta-patching compiled kernels: splice instead of recompile.

``patch_kernel(old, graph, delta)`` produces a fresh
:class:`~repro.kernel.compile.GraphKernel` describing ``graph`` (the *already
mutated* source) by reusing everything the delta provably did not touch in
``old`` (the snapshot compiled before the mutations).  The delta supplies the
*invalidation footprint* — which vertices were touched — while all truth is
read back from the graph itself, so composing/patching can never produce a
torn snapshot: the result is observably identical to
``compile_kernel(graph)``, which the test-suite uses as the parity oracle.

Two regimes:

* **Same-index splice** — the vertex ordering and attribute domain are
  unchanged (edge churn, attribute/label resets).  Untouched adjacency rows
  are shared by reference; only touched rows are rebuilt, and the CSR
  arrays are re-spliced around them.
* **Index remap** — vertices were inserted/deleted (or the attribute value
  set changed), so the deterministic sorted-by-``str`` renumbering shifts.
  Surviving indices partition into maximal runs of constant offset, and each
  untouched row/attribute mask is remapped with one shift-and-or per run
  (``O(rows · runs)`` big-int work) instead of being rebuilt bit by bit.

Lazy derived caches (degeneracy order, core numbers) are invalidated —
they are cheap to rebuild on demand and any edge churn changes them.  The
connected-component masks are carried over selectively: when the delta only
*adds* edges inside existing components (and the old snapshot had already
computed its components), the partition is provably unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.incremental.delta import GraphDelta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.attributed_graph import AttributedGraph
    from repro.kernel.compile import GraphKernel


def patch_kernel(old: "GraphKernel", graph: "AttributedGraph", delta: GraphDelta):
    """Return a kernel for ``graph`` spliced from ``old`` using ``delta``.

    ``old`` must be a snapshot of the graph as it was at
    ``delta.base_version``.  Observationally identical to a fresh
    ``compile_kernel`` of ``graph``.
    """
    from repro.kernel.compile import compile_kernel, index_attributed_graph

    if old.n == 0 or graph.num_vertices == 0:
        # Growing from / shrinking to nothing: a fresh compile is as cheap
        # as any splice could be.
        return compile_kernel(graph)

    ordered, index_of, attribute_values, code_of = index_attributed_graph(graph)
    touched = delta.touched_vertices()
    if tuple(ordered) == old.vertex_of and attribute_values == old.attribute_values:
        return _patch_same_index(
            old, graph, delta, touched, index_of, code_of, attribute_values
        )
    return _patch_remap(
        old, graph, touched, ordered, index_of, attribute_values, code_of
    )


# ---------------------------------------------------------------------- #
# Fast path: vertex ordering and attribute domain unchanged
# ---------------------------------------------------------------------- #
def _patch_same_index(old, graph, delta, touched, index_of, code_of, attribute_values):
    from repro.kernel.compile import GraphKernel

    n = old.n
    # Transient vertices (added then removed inside one batch) appear in the
    # footprint but not in the final graph; their edge partners do.
    touched_idx = sorted(index_of[v] for v in touched if v in index_of)
    new_rows: dict[int, list[int]] = {}
    for ti in touched_idx:
        vertex = old.vertex_of[ti]
        new_rows[ti] = sorted(index_of[u] for u in graph.neighbors(vertex))

    # Attribute-code and label fixups only ever involve touched vertices.
    attr_codes = list(old.attr_codes)
    labels = dict(old.labels)
    code_moves: list[tuple[int, int, int]] = []  # (index, old_code, new_code)
    for ti in touched_idx:
        vertex = old.vertex_of[ti]
        code = code_of[graph.attribute(vertex)]
        if code != attr_codes[ti]:
            code_moves.append((ti, attr_codes[ti], code))
            attr_codes[ti] = code
        label = graph.label(vertex)
        if label != str(vertex):
            labels[ti] = label
        else:
            labels.pop(ti, None)

    adj_bits = list(old.adj_bits)
    for index, row in new_rows.items():
        mask = 0
        for neighbor in row:
            mask |= 1 << neighbor
        adj_bits[index] = mask

    attr_masks = list(old.attr_masks)
    for index, old_code, new_code in code_moves:
        bit = 1 << index
        attr_masks[old_code] &= ~bit
        attr_masks[new_code] |= bit

    indptr, indices = _splice_csr(old, n, new_rows)
    kernel = GraphKernel(
        vertex_of=old.vertex_of,
        index_of=old.index_of,
        indptr=indptr,
        indices=indices,
        adj_bits=tuple(adj_bits),
        attribute_values=attribute_values,
        attr_codes=tuple(attr_codes),
        attr_masks=tuple(attr_masks),
        labels=labels,
        num_edges=graph.num_edges,
    )
    _carry_component_masks(old, kernel, delta)
    return kernel


def _splice_csr(old, n, new_rows):
    """CSR re-splice: copy untouched row slices, insert rebuilt rows."""
    indptr = [0] * (n + 1)
    indices: list[int] = []
    old_indptr = old.indptr
    old_indices = old.indices
    for index in range(n):
        row = new_rows.get(index)
        if row is None:
            row = old_indices[old_indptr[index]:old_indptr[index + 1]]
        indices.extend(row)
        indptr[index + 1] = len(indices)
    return indptr, indices


def _carry_component_masks(old, kernel, delta: GraphDelta) -> None:
    """Carry the old component partition over when it provably still holds.

    Sound exactly when the delta only *adds* edges whose endpoints already
    sat in the same component (attribute/label resets are irrelevant to
    connectivity).  Any removal, or a bridging insertion, invalidates the
    cache and it rebuilds lazily as usual.
    """
    masks = old._component_masks
    if masks is None:
        return
    index_of = old.index_of
    for op in delta.ops:
        tag = op[0]
        if tag == "add_vertex":
            continue
        if tag != "add_edge":
            return
        u, v = index_of.get(op[1]), index_of.get(op[2])
        if u is None or v is None:
            return
        u_bit, v_bit = 1 << u, 1 << v
        if not any(mask & u_bit and mask & v_bit for mask in masks):
            return
    kernel._component_masks = masks


# ---------------------------------------------------------------------- #
# Remap path: vertex insertions/deletions (or attribute-domain change)
# ---------------------------------------------------------------------- #
def _patch_remap(old, graph, touched, ordered, index_of, attribute_values, code_of):
    from repro.kernel.compile import GraphKernel

    n = len(ordered)
    old_index_of = old.index_of

    # Maximal runs of surviving old indices with a constant index offset.
    # Both orderings sort by str(id), so survivors keep their relative order
    # and every old mask remaps with one shift-and-or per run.
    runs: list[tuple[int, int, int]] = []  # (start, length, offset)
    start = length = offset = 0
    for i, vertex in enumerate(old.vertex_of):
        j = index_of.get(vertex)
        if j is not None and length and j - i == offset:
            length += 1
            continue
        if length:
            runs.append((start, length, offset))
            length = 0
        if j is not None:
            start, length, offset = i, 1, j - i
    if length:
        runs.append((start, length, offset))

    def remap_mask(mask: int) -> int:
        result = 0
        for run_start, run_length, run_offset in runs:
            segment = (mask >> run_start) & ((1 << run_length) - 1)
            result |= segment << (run_start + run_offset)
        return result

    remap = {i: index_of[v] for i, v in enumerate(old.vertex_of) if v in index_of}

    adj_bits = [0] * n
    rows: list = [None] * n
    attr_codes = [0] * n
    labels: dict[int, str] = {}
    for j, vertex in enumerate(ordered):
        attr_codes[j] = code_of[graph.attribute(vertex)]
        label = graph.label(vertex)
        if label != str(vertex):
            labels[j] = label
        i = old_index_of.get(vertex)
        if i is None or vertex in touched:
            row = sorted(index_of[u] for u in graph.neighbors(vertex))
            mask = 0
            for neighbor in row:
                mask |= 1 << neighbor
        else:
            # Untouched survivor: every neighbour survived untouched too
            # (an edge change marks both endpoints), so the old row remaps
            # completely and stays sorted (the remap is order-preserving).
            mask = remap_mask(old.adj_bits[i])
            row = [remap[x] for x in old.neighbors_csr(i)]
        adj_bits[j] = mask
        rows[j] = row

    # Attribute carrier masks, remapped by *value* (codes may be permuted by
    # a domain change); touched carriers are then patched bit-wise.
    old_value_masks = {
        value: old.attr_masks[code]
        for code, value in enumerate(old.attribute_values)
    }
    attr_masks = [remap_mask(old_value_masks.get(value, 0)) for value in attribute_values]
    fixups = {index_of[v] for v in touched if v in index_of}
    fixups.update(j for j, v in enumerate(ordered) if v not in old_index_of)
    for j in fixups:
        bit = 1 << j
        for code in range(len(attr_masks)):
            attr_masks[code] &= ~bit
        attr_masks[attr_codes[j]] |= bit
    if not attr_masks:  # attribute-less graph still carries one empty row
        attr_masks = [0]

    indices: list[int] = []
    indptr = [0] * (n + 1)
    for j, row in enumerate(rows):
        indices.extend(row)
        indptr[j + 1] = len(indices)

    return GraphKernel(
        vertex_of=tuple(ordered),
        index_of=index_of,
        indptr=indptr,
        indices=indices,
        adj_bits=tuple(adj_bits),
        attribute_values=attribute_values,
        attr_codes=tuple(attr_codes),
        attr_masks=tuple(attr_masks),
        labels=labels,
        num_edges=graph.num_edges,
    )
