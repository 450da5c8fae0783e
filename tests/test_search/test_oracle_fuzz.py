"""Differential fuzz: exact solves against a kernel-free oracle.

Each case draws a small random graph (n = 5–18) and a random exact-engine
query — fairness model, ``k``, ``delta``, bound stack (or none), a random
subset and order of the reduction stages, the ``use_reduction`` /
``use_heuristic`` switches.  The answer must be optimal, a valid fair
clique, and exactly as large as the :class:`FairCliqueOracle` answer
(set-based Bron–Kerbosch plus the best fair subset of every maximal clique;
see ``tests/conftest.py``).
A few cases run on two workers, and a set of mutation sequences checks warm
re-solves after ``graph.mutate()`` → ``session.refresh()``.  The enumeration
tasks run on the same random graphs and models: ``task="enumerate"`` must
return exactly the oracle's fair maximal cliques, and ``task="top_k"`` the
``count`` largest of them.

Every failure message names the case seed and the query, so
``random_case(seed)`` rebuilds the failing input.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession, solve
from repro.bounds.stacks import stack_names
from repro.graph.attributed_graph import AttributedGraph
from repro.models.base import BINARY_STAGES, MULTI_STAGES

MODELS = ("relative", "weak", "strong", "multi_weak")
#: Every stage is sound for the binary models; multi_weak has one.
BINARY_STAGE_POOL = ("ColorfulCore",) + BINARY_STAGES
STACKS = (None,) + tuple(sorted(stack_names()))

CHUNKS = 8
CASES_PER_CHUNK = 128
PARALLEL_CASES = 8
TASK_CASES = 128
MUTATION_SEQUENCES = 20
MUTATION_STEPS = 3


def random_graph(rng: random.Random, values: str) -> AttributedGraph:
    n = rng.randint(5, 18)
    density = rng.uniform(0.4, 0.95)
    graph = AttributedGraph()
    for vertex in range(n):
        graph.add_vertex(vertex, rng.choice(values))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def random_case(seed: int, workers: int | None = None):
    """``(graph, query)`` of one fuzz case, fully determined by ``seed``."""
    rng = random.Random(seed)
    model = rng.choice(MODELS)
    if model == "multi_weak":
        values, k, pool = "abcd"[:rng.randint(2, 4)], rng.randint(1, 2), MULTI_STAGES
    else:
        values, k, pool = "ab", rng.randint(1, 3), BINARY_STAGE_POOL
    delta = rng.randint(0, 3) if model == "relative" else None
    options = {
        "bound_stack": rng.choice(STACKS),
        "reduction_stages": rng.sample(pool, rng.randint(0, len(pool))),
        "use_reduction": rng.random() < 0.8,
        "use_heuristic": rng.random() < 0.5,
    }
    query = FairCliqueQuery(model=model, k=k, delta=delta, options=options,
                            workers=workers)
    return random_graph(rng, values), query


def check_case(oracle, seed: int, workers: int | None = None) -> None:
    graph, query = random_case(seed, workers)
    report = solve(graph, query)
    oracle.check(graph, report, query.model, query.k, query.delta,
                 label=f"seed={seed} {query!r}")


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_exact_solves_match_the_oracle(chunk, oracle):
    for seed in range(chunk * CASES_PER_CHUNK, (chunk + 1) * CASES_PER_CHUNK):
        check_case(oracle, seed)


@pytest.mark.parametrize("seed", range(PARALLEL_CASES))
def test_two_worker_solves_match_the_oracle(seed, oracle):
    check_case(oracle, 50_000 + seed, workers=2)


@pytest.mark.parametrize("task", ("enumerate", "top_k"))
def test_enumeration_tasks_match_the_oracle(task, oracle):
    for seed in range(70_000, 70_000 + TASK_CASES):
        graph, drawn = random_case(seed)
        count = random.Random(-seed).randint(1, 4) if task == "top_k" else None
        query = FairCliqueQuery(model=drawn.model, k=drawn.k, delta=drawn.delta,
                                task=task, count=count)
        report = solve(graph, query)
        expected = oracle.fair_maximal_cliques(graph, query.model, query.k, query.delta)
        label = f"seed={seed} {query!r}"
        cliques = report.cliques
        assert len(set(cliques)) == len(cliques) and set(cliques) <= expected, label
        if task == "enumerate":
            assert len(cliques) == len(expected), label
        else:
            sizes = sorted(map(len, expected), reverse=True)[:count]
            assert [len(clique) for clique in cliques] == sizes, label


def mutate(rng: random.Random, graph: AttributedGraph, values: str) -> None:
    """One batch of 1–4 random edge/vertex insertions and deletions."""
    with graph.mutate() as g:
        for _ in range(rng.randint(1, 4)):
            vertices = sorted(g.vertices())
            op = rng.random()
            if op < 0.35 and g.num_edges:
                g.remove_edge(*rng.choice(sorted(g.edges())))
            elif op < 0.7 and len(vertices) >= 2:
                u, v = rng.sample(vertices, 2)
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
            elif op < 0.85 or len(vertices) < 5:
                new = max(vertices, default=-1) + 1
                g.add_vertex(new, rng.choice(values))
                for other in rng.sample(vertices, min(len(vertices), rng.randint(1, 6))):
                    g.add_edge(new, other)
            else:
                g.remove_vertex(rng.choice(vertices))


@pytest.mark.parametrize("seed", range(MUTATION_SEQUENCES))
def test_warm_solves_after_mutations_match_the_oracle(seed, oracle):
    seed = 90_000 + seed
    graph, query = random_case(seed)
    values = "".join(graph.attribute_values()) or "ab"
    rng = random.Random(-seed)
    with FairCliqueSession(graph) as session:
        report = session.solve(query)
        oracle.check(graph, report, query.model, query.k, query.delta,
                     label=f"seed={seed} cold {query!r}")
        for step in range(MUTATION_STEPS):
            mutate(rng, graph, values)
            session.refresh()
            report = session.solve(query)
            oracle.check(graph, report, query.model, query.k, query.delta,
                         label=f"seed={seed} step={step} {query!r}")
