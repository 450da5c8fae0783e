"""Planted fair-clique families: exact answers at n = 163 against known optima.

The oracle fuzz checks optimality where Bron–Kerbosch is cheap (n <= 18).
These graphs are where the search's color bound prunes deep: a dense
12-partite background (clique number <= 12) with planted cliques whose best
fair subsets are larger than any clique that touches the background, so the
optimum is known by construction (``PlantedFamily`` in ``tests/conftest.py``).
Each case runs one fairness model on its own seed, serially and on two
workers, with the default bound stack and HeurRFC seed.  A search without
the color bound explores millions of branches per case.
"""

from __future__ import annotations

import pytest

from repro.api import FairCliqueQuery, solve

MODELS = ("relative", "weak", "strong", "multi_weak")

#: Best fair subsets: 15 for weak and multi_weak (the (8, 7) clique), 14 for
#: strong, and 15 for relative with delta = 1 (the (8, 7) clique, which meets
#: its balance bound 1 + 2 * 7 exactly, so a bound tightened by one loses
#: it).  A clique touching the background has at most 13 vertices.
CLIQUES = ((9, 5), (8, 7), (7, 7))


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("seed, model", list(enumerate(MODELS)))
def test_planted_optimum(planted_family, oracle, seed, model, workers):
    family = planted_family(120, 12, 0.75, CLIQUES)
    graph = family.graph(seed)
    delta = 1 if model == "relative" else None
    report = solve(graph, FairCliqueQuery(
        model=model, k=2, delta=delta, workers=workers,
    ))
    assert report.optimal and not report.aborted
    assert report.size == family.optimum(model, 2, delta), (seed, model, workers)
    assert oracle.is_fair_clique(graph, report.clique, model, 2, delta)
