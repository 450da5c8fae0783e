"""Merge semantics under budget aborts: 4 models × 1/2/4 workers.

When the deadline lands mid-shard the executor must merge whatever the
shards completed into an honest partial answer: ``aborted=True``,
``optimal=False``, and a clique that is still *valid* (never a fabricated
or unverified one) and never larger than the true optimum.  The serial
path (workers=1) anchors the same contract.
"""

from __future__ import annotations

import pytest

from repro.api import FairCliqueQuery, solve
from repro.search.verification import is_relative_fair_clique
from repro.variants.multi_attribute import is_multi_attribute_weak_fair_clique

MODELS = ("relative", "weak", "strong", "multi_weak")
WORKERS = (1, 2, 4)

#: A deadline that has already expired when the first budget check runs —
#: every shard that reaches 64 branches aborts, deterministically.
EXPIRED = 1e-6


def _query(model: str, workers: int, time_limit: float | None) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(
        model=model, k=2, delta=delta, workers=workers, time_limit=time_limit
    )


def _assert_valid(graph, report) -> None:
    if not report.found:
        return
    if report.model == "multi_weak":
        assert is_multi_attribute_weak_fair_clique(graph, report.clique, report.k)
    else:
        delta = _query(report.model, 1, None).effective_delta(graph)
        assert is_relative_fair_clique(graph, report.clique, report.k, delta)


class TestBudgetAbortMatrix:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("model", MODELS)
    def test_aborted_partial_merge(self, budget_graph, searches_past_budget_checks,
                                   model, workers):
        graph = budget_graph
        optimum = solve(graph, _query(model, workers, None))
        assert optimum.optimal and not optimum.aborted
        searches_past_budget_checks(optimum)

        report = solve(graph, _query(model, workers, EXPIRED))
        assert report.aborted, (model, workers)
        assert not report.optimal
        # The partial answer is honest: a verified fair clique (the
        # heuristic seed survives the abort) no larger than the optimum.
        assert report.found
        assert report.size <= optimum.size
        _assert_valid(graph, report)
        if workers > 1:
            parallel = report.metadata["parallel"]
            assert parallel["aborted_shards"] >= 1
            # An abort is a truncation, not a loss: every shard reported.
            assert not parallel["degraded"]

    def test_abort_does_not_poison_later_solves(self, budget_graph,
                                                searches_past_budget_checks):
        # The same graph solved again without a budget is exact: abort
        # state lives in the report, not in module globals.
        graph = budget_graph
        aborted = solve(graph, _query("relative", 2, EXPIRED))
        assert aborted.aborted
        clean = solve(graph, _query("relative", 2, None))
        assert clean.optimal and not clean.aborted
        searches_past_budget_checks(clean)
