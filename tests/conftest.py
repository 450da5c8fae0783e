"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PlantedFamily:
    """Graphs whose maximum fair clique is known by construction.

    The background is a random subgraph (edge probability ``density``) of a
    complete ``parts``-partite graph on ``num_background`` vertices with
    random attributes ``a``/``b``, so its clique number is at most
    ``parts``.  Each ``(count_a, count_b)`` of ``cliques`` plants a clique of
    that many ``a`` and ``b`` vertices.  Each background vertex is joined,
    with probability ``attach``, to one random vertex of each planted clique,
    and no edge runs between planted cliques.  A clique that touches the
    background thus holds at most ``parts`` background vertices and one
    planted vertex, so once the best fair subset of a planted clique exceeds
    ``parts + 1``, it is the optimum (:meth:`optimum`).  The same idea hides
    cliques in the DIMACS camouflage families (Brockington and Culberson,
    DIMACS Series 26, 1996).
    """

    num_background: int
    parts: int
    density: float
    cliques: tuple[tuple[int, int], ...]
    attach: float = 0.3

    def graph(self, seed: int = 0) -> AttributedGraph:
        rng = random.Random(seed)
        graph = AttributedGraph()
        part = [rng.randrange(self.parts) for _ in range(self.num_background)]
        for v in range(self.num_background):
            graph.add_vertex(v, rng.choice("ab"))
        for u in range(self.num_background):
            for v in range(u + 1, self.num_background):
                if part[u] != part[v] and rng.random() < self.density:
                    graph.add_edge(u, v)
        next_id = self.num_background
        for count_a, count_b in self.cliques:
            members = range(next_id, next_id + count_a + count_b)
            next_id += count_a + count_b
            for v in members:
                graph.add_vertex(v, "a" if v - members[0] < count_a else "b")
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    graph.add_edge(u, v)
            for u in range(self.num_background):
                if rng.random() < self.attach:
                    graph.add_edge(u, rng.choice(members))
        return graph

    def optimum(self, model: str, k: int, delta: int | None = None) -> int:
        """Size of a maximum fair clique; fails when the construction does
        not pin it (no planted fair subset larger than ``parts + 1``)."""
        best = 0
        for count_a, count_b in self.cliques:
            if min(count_a, count_b) < k:
                continue
            if model == "relative":
                size = min(count_a, count_b + delta) + min(count_b, count_a + delta)
            elif model == "strong":
                size = 2 * min(count_a, count_b)
            else:  # weak and multi_weak: no cap on the gap
                size = count_a + count_b
            best = max(best, size)
        assert best > self.parts + 1, "the planted cliques do not pin the optimum"
        return best


@pytest.fixture
def planted_family():
    """:class:`PlantedFamily`: graphs with a known maximum fair clique."""
    return PlantedFamily


def assert_searches_past_budget_checks(report) -> None:
    """The unbudgeted ``report`` explored at least 2 * 64 branches per shard.

    Budget and stop checks run every 64 branches, so a shard that finishes
    sooner never sees an expired deadline or a set stop flag.  A test whose
    input stops searching that long must fail here, not in its abort
    assertions.  Twice the interval leaves room for the shared incumbent:
    a shard explores fewer branches the sooner another finds the optimum.
    """
    shards = report.metadata.get("parallel", {}).get("shards", 1)
    assert report.stats.branches_explored >= 2 * 64 * shards, (
        f"{report.stats.branches_explored} branches over {shards} shard(s)"
    )


@pytest.fixture
def budget_graph(planted_family) -> AttributedGraph:
    """A planted family (n = 169) whose solves still search past many
    budget checks; pair it with :func:`assert_searches_past_budget_checks`."""
    return planted_family(140, 12, 0.75, ((8, 7), (7, 7))).graph(seed=0)


@pytest.fixture
def searches_past_budget_checks():
    """:func:`assert_searches_past_budget_checks`."""
    return assert_searches_past_budget_checks
