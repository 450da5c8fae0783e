"""Kernel v2: fixed-width uint64 word-array bitset storage.

The big-int kernel of PR 2 stores one arbitrary-precision ``int`` per
adjacency row and builds each with O(degree) shifted ORs, every one of
which copies the whole row — compiling is O(m · n/64) and pickling the
snapshot serialises n separate big ints.  The words backend keeps the same
*logical* representation (every mask handed to consumers is still a Python
``int``) but changes the physical one:

* All adjacency rows and all per-attribute carrier masks live in **one
  contiguous little-endian buffer** of ``n + max(1, d)`` rows, each
  ``ceil(n/64)`` uint64 words wide.  Compiling sets single bytes —
  O(m + n·words) total.
* Rows materialise into ints lazily (``int.from_bytes`` over a buffer
  slice) and are cached, so the branch-and-bound sees exactly the big-int
  arithmetic it was written against — search trees, bounds, and counters
  are bit-for-bit identical across backends.
* The CSR arrays are machine-typed (``array('Q')``), so the whole snapshot
  pickles as three flat byte blobs instead of ~n Python objects (parallel
  workers inherit it by ``fork`` and never unpickle it; the blobs are what
  crosses a process boundary where fork is absent).

``NumpyGraphKernel`` is the same storage compiled under the ``numpy``
backend name: it differs only in the mask-ops implementation bound to it
(vectorised reductions over the buffer).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.kernel.backend import BACKEND_NUMPY, BACKEND_WORDS
from repro.kernel.compile import GraphKernel, index_attributed_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.attributed_graph import AttributedGraph


class LazyWordRows(Sequence):
    """Adjacency rows materialised to ints on first touch, then cached.

    Consumers index and iterate ``kernel.adj_bits``; they never mutate it.
    A row is one ``int.from_bytes`` over the backing buffer slice — cheap,
    and paid at most once per row per process.
    """

    __slots__ = ("_buffer", "_row_bytes", "_cache")

    def __init__(self, buffer, row_bytes: int, n: int) -> None:
        self._buffer = buffer
        self._row_bytes = row_bytes
        self._cache: list = [None] * n

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index: int) -> int:
        cache = self._cache
        if index < 0:
            index += len(cache)
        row = cache[index]
        if row is None:
            row_bytes = self._row_bytes
            offset = index * row_bytes
            row = int.from_bytes(
                self._buffer[offset:offset + row_bytes], "little"
            )
            cache[index] = row
        return row

    def __iter__(self) -> Iterator[int]:
        for index in range(len(self._cache)):
            yield self[index]


class WordsGraphKernel(GraphKernel):
    """Graph snapshot whose bitsets live in one fixed-width words buffer."""

    backend = BACKEND_WORDS

    __slots__ = ("words", "row_bytes", "buffer")

    def __init__(
        self,
        vertex_of: tuple,
        index_of: dict,
        indptr,
        indices,
        buffer,
        attribute_values: tuple[str, ...],
        attr_codes: tuple[int, ...],
        labels: dict[int, str],
        num_edges: int,
    ) -> None:
        n = len(vertex_of)
        words = (n + 63) // 64
        row_bytes = words * 8
        self.words = words
        self.row_bytes = row_bytes
        self.buffer = buffer
        attr_base = n * row_bytes
        attr_masks = tuple(
            int.from_bytes(
                buffer[attr_base + code * row_bytes:
                       attr_base + (code + 1) * row_bytes],
                "little",
            )
            for code in range(max(1, len(attribute_values)))
        )
        super().__init__(
            vertex_of=vertex_of,
            index_of=index_of,
            indptr=indptr,
            indices=indices,
            adj_bits=LazyWordRows(buffer, row_bytes, n),
            attribute_values=attribute_values,
            attr_codes=attr_codes,
            attr_masks=attr_masks,
            labels=labels,
            num_edges=num_edges,
        )

    @property
    def num_attr_rows(self) -> int:
        """Attribute rows in the buffer (at least one, even with no values)."""
        return max(1, len(self.attribute_values))

    # ------------------------------------------------------------------ #
    # Pickling: ship three flat byte blobs, rebuild everything derived.
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return {
            "vertex_of": self.vertex_of,
            "indptr": self.indptr,
            "indices": self.indices,
            "buffer": self.buffer,
            "attribute_values": self.attribute_values,
            "attr_codes": self.attr_codes,
            "labels": self.labels,
            "num_edges": self.num_edges,
            "caches": (
                self._degeneracy_order,
                self._core_numbers,
                self._component_masks,
            ),
        }

    def __setstate__(self, state) -> None:
        caches = state.pop("caches")
        vertex_of = state["vertex_of"]
        self.__init__(
            index_of={vertex: i for i, vertex in enumerate(vertex_of)},
            **state,
        )
        (
            self._degeneracy_order,
            self._core_numbers,
            self._component_masks,
        ) = caches

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, m={self.num_edges}, "
            f"words={self.words}, attributes={self.attribute_values!r})"
        )


class NumpyGraphKernel(WordsGraphKernel):
    """Words storage with the vectorised numpy mask-ops bound to it."""

    backend = BACKEND_NUMPY

    __slots__ = ()


def compile_words_kernel(
    graph: "AttributedGraph", backend_name: str = BACKEND_WORDS
) -> WordsGraphKernel:
    """Compile ``graph`` into the contiguous word-array snapshot.

    Same deterministic renumbering as the int path (shared prelude), but
    bit-setting is byte arithmetic on one bytearray: O(m + n·words) with no
    big-int churn, which is what makes compile the first primitive the
    words backend wins at scale.
    """
    ordered, index_of, attribute_values, code_of = index_attributed_graph(
        graph
    )
    n = len(ordered)
    words = (n + 63) // 64
    row_bytes = words * 8
    scratch = bytearray((n + max(1, len(attribute_values))) * row_bytes)
    attr_base = n * row_bytes

    indptr = [0] * (n + 1)
    indices: list[int] = []
    attr_codes = [0] * n
    labels: dict[int, str] = {}

    for index, vertex in enumerate(ordered):
        code = code_of[graph.attribute(vertex)]
        attr_codes[index] = code
        row = attr_base + code * row_bytes
        scratch[row + (index >> 3)] |= 1 << (index & 7)
        label = graph.label(vertex)
        if label != str(vertex):
            labels[index] = label
        neighbor_indices = sorted(index_of[u] for u in graph.neighbors(vertex))
        indices.extend(neighbor_indices)
        indptr[index + 1] = len(indices)
        row = index * row_bytes
        for neighbor in neighbor_indices:
            scratch[row + (neighbor >> 3)] |= 1 << (neighbor & 7)

    cls = NumpyGraphKernel if backend_name == BACKEND_NUMPY else WordsGraphKernel
    return cls(
        vertex_of=tuple(ordered),
        index_of=index_of,
        indptr=array("Q", indptr),
        indices=array("Q", indices),
        buffer=bytes(scratch),
        attribute_values=attribute_values,
        attr_codes=tuple(attr_codes),
        labels=labels,
        num_edges=graph.num_edges,
    )
