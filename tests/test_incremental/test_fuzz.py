"""Randomized mutation-sequence fuzz: patched solves == fresh-compile solves.

The acceptance gate of the incremental PR: drive a warm session through
50+ random mixed mutations (edge add/remove, vertex add/remove, attribute
resets) applied in ``mutate()`` chunks, refreshing after each chunk, and
require the refreshed session's solve to be **bit-identical** — clique,
survivors, and every search counter (branch counts, prune counts, bound
evaluations) — to a cold session that recompiled everything from scratch.
Runs for all four fairness models, serially; the 2-worker axis checks
answer identity through the sharded executor.  Warm starts are fuzzed
separately for answer preservation (a seeded incumbent legitimately
changes prune counters).
"""

from __future__ import annotations

import random

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession
from repro.graph.generators import erdos_renyi_graph

MODELS = ("relative", "weak", "strong", "multi_weak")

COUNTER_FIELDS = (
    "branches_explored",
    "solutions_found",
    "pruned_by_size",
    "pruned_by_attribute_feasibility",
    "pruned_by_fairness_gap",
    "pruned_by_bound",
    "pruned_by_incumbent",
    "bound_evaluations",
)


def _query(model: str, workers=None) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(model=model, k=2, delta=delta, workers=workers)


def _signature(report):
    """Everything a solve observably computed, counters included."""
    return {
        "clique": sorted(report.clique, key=str),
        "size": report.size,
        "optimal": report.optimal,
        "reduction": report.metadata.get("reduction"),
        "kernel": report.metadata.get("kernel"),
        **{field: getattr(report.stats, field) for field in COUNTER_FIELDS},
    }


def _mutate_chunk(graph, rng, size) -> int:
    """Apply ``size`` random mutations in ONE batch; returns ops attempted."""
    with graph.mutate() as g:
        for _ in range(size):
            verts = sorted(g.vertices(), key=str)
            roll = rng.random()
            if roll < 0.35 and len(verts) >= 2:
                u, v = rng.sample(verts, 2)
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
            elif roll < 0.6 and g.num_edges:
                edge = rng.choice(sorted(
                    g.edges(), key=lambda e: (str(e[0]), str(e[1]))))
                g.remove_edge(*edge)
            elif roll < 0.75 and len(verts) > 4:
                g.remove_vertex(rng.choice(verts))
            elif roll < 0.85 and verts:
                g.add_vertex(rng.choice(verts), rng.choice(("a", "b")))
            else:
                new = f"v{rng.randrange(100_000)}"
                g.add_vertex(new, rng.choice(("a", "b")))
                for other in rng.sample(verts, min(len(verts), 3)):
                    g.add_edge(new, other)
    return size


def _drive(model: str, seed: int, *, total_ops: int, workers=None,
           compare_counters: bool = True) -> None:
    rng = random.Random(seed)
    graph = erdos_renyi_graph(22, 0.28, seed=seed)
    query = _query(model, workers=workers)
    session = FairCliqueSession(graph, warm_start=False)
    try:
        session.solve(query)
        applied = 0
        while applied < total_ops:
            applied += _mutate_chunk(graph, rng, rng.randint(4, 12))
            session.refresh()
            warm = session.solve(query)
            with FairCliqueSession(graph, warm_start=False) as cold_session:
                cold = cold_session.solve(query)
            if compare_counters:
                assert _signature(warm) == _signature(cold), (
                    model, seed, applied)
            else:
                assert warm.size == cold.size, (model, seed, applied)
                assert sorted(warm.clique, key=str) == \
                    sorted(cold.clique, key=str), (model, seed, applied)
                assert warm.optimal == cold.optimal
    finally:
        session.close()


@pytest.mark.parametrize("model", MODELS)
def test_serial_bit_identity(model):
    _drive(model, seed=17 + MODELS.index(model), total_ops=55)


@pytest.mark.parametrize("model", MODELS)
def test_two_worker_answer_identity(model):
    _drive(model, seed=41 + MODELS.index(model), total_ops=30,
           workers=2, compare_counters=False)


def test_long_sequence_survives_journal_pressure():
    """~200 ops in many small chunks: warm while history holds, correct always."""
    rng = random.Random(7)
    graph = erdos_renyi_graph(18, 0.3, seed=7)
    query = _query("relative")
    session = FairCliqueSession(graph, warm_start=False)
    try:
        session.solve(query)
        applied = 0
        while applied < 200:
            applied += _mutate_chunk(graph, rng, rng.randint(2, 5))
            session.refresh()
        warm = session.solve(query)
        with FairCliqueSession(graph, warm_start=False) as cold_session:
            assert _signature(warm) == _signature(cold_session.solve(query))
        info = session.cache_info()
        assert info["refreshes"] >= 40
    finally:
        session.close()


def test_warm_start_fuzz_preserves_answers():
    """With warm_start on, answers (not counters) must match a cold session."""
    rng = random.Random(23)
    graph = erdos_renyi_graph(20, 0.3, seed=23)
    query = _query("relative")
    session = FairCliqueSession(graph)  # warm_start=True
    try:
        session.solve(query)
        for _ in range(8):
            _mutate_chunk(graph, rng, rng.randint(3, 8))
            session.refresh()
            warm = session.solve(query)
            with FairCliqueSession(graph, warm_start=False) as cold_session:
                cold = cold_session.solve(query)
            assert warm.size == cold.size
            assert warm.optimal and cold.optimal
    finally:
        session.close()
