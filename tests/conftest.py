"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from repro.api.query import FairCliqueQuery
from repro.baselines.bron_kerbosch import enumerate_maximal_cliques_reference
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import complete_graph, from_edge_list, paper_example_graph
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.kernel import compile as kernel_compile
from repro.search.verification import best_fair_subset


@pytest.fixture
def triangle_graph() -> AttributedGraph:
    """A 3-clique with two 'a' vertices and one 'b' vertex."""
    return from_edge_list(
        [(1, 2), (2, 3), (1, 3)],
        {1: "a", 2: "a", 3: "b"},
    )


@pytest.fixture
def paper_graph() -> AttributedGraph:
    """The running example of Fig. 1 (15 vertices)."""
    return paper_example_graph()


@pytest.fixture
def balanced_clique() -> AttributedGraph:
    """A complete graph on 8 vertices, 4 of each attribute."""
    return complete_graph({i: ("a" if i % 2 == 0 else "b") for i in range(8)})


@pytest.fixture
def small_random_graph() -> AttributedGraph:
    """A deterministic 20-vertex Erdős–Rényi graph with balanced attributes."""
    return erdos_renyi_graph(20, 0.4, seed=7)


@pytest.fixture
def community_fixture() -> AttributedGraph:
    """A community graph with dense blocks (used by integration tests)."""
    return community_graph(4, 10, intra_probability=0.85, inter_edges=2, seed=3)


@pytest.fixture
def rng() -> random.Random:
    """A seeded random generator for tests that need extra randomness."""
    return random.Random(12345)


class FairCliqueOracle:
    """Kernel-free ground truth for exact fair-clique solves.

    Every fair clique lies inside some maximal clique, and every subset of a
    clique is a clique, so the optimum is the best fair subset over the
    maximal cliques.  Those come from the set-based Bron–Kerbosch reference
    enumerator; the best fair subset is
    :func:`~repro.search.verification.best_fair_subset` under the model's
    binary ``delta`` (:meth:`FairCliqueQuery.effective_delta`), or, for
    ``multi_weak``, the whole maximal clique when it meets every per-value
    quota.  Nothing here touches :mod:`repro.kernel`, so a kernel bug cannot
    hide in the reference.
    """

    @staticmethod
    def size(graph: AttributedGraph, model: str, k: int, delta: int | None = None) -> int:
        """Size of a maximum fair clique of ``graph`` (0 when none exists)."""
        values = graph.attribute_values()
        best = 0
        if model == "multi_weak":
            for clique in enumerate_maximal_cliques_reference(graph):
                counts = Counter(graph.attribute(v) for v in clique)
                if all(counts[value] >= k for value in values):
                    best = max(best, len(clique))
            return best
        if len(values) != 2:
            return 0
        gap = FairCliqueQuery(model=model, k=k, delta=delta).effective_delta(graph)
        for clique in enumerate_maximal_cliques_reference(graph):
            best = max(best, len(best_fair_subset(graph, clique, k, gap)))
        return best

    @staticmethod
    def is_fair_clique(graph: AttributedGraph, clique, model: str, k: int,
                       delta: int | None = None) -> bool:
        """Whether ``clique`` is a clique of ``graph`` meeting the model's condition."""
        if not all(graph.has_vertex(v) for v in clique) or not graph.is_clique(clique):
            return False
        values = graph.attribute_values()
        counts = Counter(graph.attribute(v) for v in clique)
        if any(counts[value] < k for value in values):
            return False
        if model == "multi_weak":
            return True
        gap = FairCliqueQuery(model=model, k=k, delta=delta).effective_delta(graph)
        return len(values) == 2 and abs(counts[values[0]] - counts[values[1]]) <= gap

    @classmethod
    def fair_maximal_cliques(cls, graph: AttributedGraph, model: str, k: int,
                             delta: int | None = None) -> set[frozenset]:
        """The maximal cliques of ``graph`` that are fair: what ``task="enumerate"`` answers."""
        return {
            frozenset(clique)
            for clique in enumerate_maximal_cliques_reference(graph)
            if cls.is_fair_clique(graph, clique, model, k, delta)
        }

    def check(self, graph: AttributedGraph, result, model: str, k: int,
              delta: int | None = None, label: str = "") -> None:
        """Assert ``result`` (a report or search result) is an optimal answer."""
        expected = self.size(graph, model, k, delta)
        where = f"{label} model={model} k={k} delta={delta}"
        assert result.optimal, f"not optimal: {where}"
        assert len(result.clique) == expected, (
            f"size {len(result.clique)} != oracle {expected}: {where}"
        )
        if expected:
            assert self.is_fair_clique(graph, result.clique, model, k, delta), (
                f"not a fair clique {sorted(result.clique, key=str)}: {where}"
            )


@pytest.fixture
def oracle() -> FairCliqueOracle:
    """The kernel-free maximum-fair-clique oracle (see :class:`FairCliqueOracle`)."""
    return FairCliqueOracle()


def rebuild_shuffled(graph: AttributedGraph, seed: int = 0) -> AttributedGraph:
    """An equal graph whose vertices and edges were inserted in a seeded
    random order, each edge with its endpoints in a random orientation."""
    rng = random.Random(seed)
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    rng.shuffle(edges)
    clone = AttributedGraph()
    for vertex in vertices:
        clone.add_vertex(vertex, graph.attribute(vertex), graph.label(vertex))
    for u, v in edges:
        clone.add_edge(u, v)
    return clone


@pytest.fixture
def shuffled_rebuild():
    """:func:`rebuild_shuffled`: compiling must not depend on insertion order."""
    return rebuild_shuffled


class CompileRecord(list):
    """The graphs handed to ``compile_kernel``, in call order.

    Setting ``delay`` (seconds) holds every compile open that long, which
    widens race windows in concurrency tests.
    """

    delay = 0.0


@pytest.fixture
def count_compiles(monkeypatch) -> CompileRecord:
    """Record every kernel compile while the test runs; returns the record."""
    record = CompileRecord()
    real_compile_kernel = kernel_compile.compile_kernel

    def counting_compile_kernel(target):
        record.append(target)
        if record.delay:
            time.sleep(record.delay)
        return real_compile_kernel(target)

    monkeypatch.setattr(kernel_compile, "compile_kernel", counting_compile_kernel)
    return record
