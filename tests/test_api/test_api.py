"""Tests for the unified query API: dispatch, parity with legacy entrypoints,
error paths, and the batch layer."""

from __future__ import annotations

import pytest

from repro.api import (
    FairCliqueQuery,
    EngineRegistry,
    SolveReport,
    UnsupportedQueryError,
    available_engines,
    default_registry,
    query_grid,
    register_engine,
    solve,
    solve_many,
)
from repro.baselines.enumeration import brute_force_maximum_fair_clique
from repro.exceptions import InvalidParameterError
from repro.graph.builders import paper_example_graph
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.heuristic.heur_rfc import HeurRFC
from repro.search.maxrfc import find_maximum_fair_clique
from repro.variants.multi_attribute import (
    brute_force_maximum_multi_weak_fair_clique,
    find_maximum_multi_weak_fair_clique,
)
from repro.variants.weak_strong import (
    brute_force_maximum_weak_fair_clique,
    find_maximum_strong_fair_clique,
    find_maximum_weak_fair_clique,
)


def small_graphs():
    return [
        paper_example_graph(),
        erdos_renyi_graph(20, 0.4, seed=7),
        community_graph(3, 8, intra_probability=0.9, inter_edges=2, seed=5),
    ]


class TestQueryValidation:
    def test_relative_requires_delta(self):
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model="relative", k=2)

    @pytest.mark.parametrize("model", ["weak", "strong", "multi_weak"])
    def test_delta_free_models_reject_delta(self, model):
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model=model, k=2, delta=1)

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model="quadratic", k=2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model="relative", k=0, delta=1)
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model="relative", k=2, delta=-1)
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery(model="relative", k=2, delta=1, time_limit=0.0)

    def test_query_grid_collapses_delta_free_models(self):
        queries = query_grid(models=("relative", "weak"), ks=(2, 3), deltas=(0, 1))
        relative = [q for q in queries if q.model == "relative"]
        weak = [q for q in queries if q.model == "weak"]
        assert len(relative) == 4  # 2 ks x 2 deltas
        assert len(weak) == 2      # 2 ks, delta collapsed
        assert all(q.delta is None for q in weak)

    def test_queries_are_hashable_and_isolated(self):
        options = {"restarts": 2}
        query = FairCliqueQuery(model="relative", k=3, delta=1,
                                engine="heuristic", options=options)
        twin = FairCliqueQuery(model="relative", k=3, delta=1,
                               engine="heuristic", options={"restarts": 2})
        assert query == twin and len({query, twin}) == 1
        options["restarts"] = 99  # caller's dict must not alias the query
        assert query.options == {"restarts": 2}

    def test_with_engine_copies(self):
        query = FairCliqueQuery(model="relative", k=3, delta=1)
        other = query.with_engine("heuristic", restarts=2)
        assert other.engine == "heuristic"
        assert other.options == {"restarts": 2}
        assert query.engine == "exact" and query.options == {}


class TestDispatchErrors:
    def test_unknown_engine_fails_fast(self):
        with pytest.raises(UnsupportedQueryError, match="unknown engine"):
            solve(paper_example_graph(), model="relative", k=2, delta=1,
                  engine="quantum")

    def test_unsupported_pair_fails_fast(self):
        # Every built-in engine now supports every model (the FairnessModel
        # layer closed the (multi_weak, heuristic) gap), so a truly
        # unsupported pair needs an engine with a narrower declaration.
        registry = EngineRegistry()
        registry.register("relative_only", ("relative",), lambda g, q, c: None)
        with pytest.raises(UnsupportedQueryError, match="does not support"):
            solve(paper_example_graph(),
                  FairCliqueQuery(model="multi_weak", k=2, engine="relative_only"),
                  registry=registry)

    def test_error_message_names_alternatives(self):
        registry = EngineRegistry()
        registry.register("relative_only", ("relative",), lambda g, q, c: None)
        registry.register("wide", ("relative", "multi_weak"), lambda g, q, c: None)
        with pytest.raises(UnsupportedQueryError, match="wide"):
            solve(paper_example_graph(),
                  FairCliqueQuery(model="multi_weak", k=2, engine="relative_only"),
                  registry=registry)

    def test_multi_weak_heuristic_pair_is_supported(self):
        # Regression for the retired "deliberately unsupported" pair: the
        # round-robin greedy now backs (multi_weak, heuristic).
        report = solve(paper_example_graph(), model="multi_weak", k=2,
                       engine="heuristic")
        assert report.engine == "heuristic"
        assert report.algorithm == "GreedyMW"
        assert not report.optimal

    def test_unknown_engine_option_rejected(self):
        # The bound stack's depth is the constant BOUND_DEPTH, not an option.
        for option in ("warp_speed", "bound_depth"):
            with pytest.raises(InvalidParameterError, match=option):
                solve(paper_example_graph(), model="relative", k=2, delta=1,
                      options={option: 1})

    def test_solve_many_fails_before_any_work(self):
        graph = paper_example_graph()
        queries = [
            FairCliqueQuery(model="relative", k=2, delta=1),
            FairCliqueQuery(model="multi_weak", k=2, engine="no_such_engine"),
        ]
        with pytest.raises(UnsupportedQueryError):
            solve_many(graph, queries)

    def test_query_and_fields_are_exclusive(self):
        query = FairCliqueQuery(model="relative", k=2, delta=1)
        with pytest.raises(InvalidParameterError):
            solve(paper_example_graph(), query, model="weak")


class TestRegistry:
    def test_builtin_support_matrix(self):
        matrix = default_registry.support_matrix()
        assert matrix["exact"] == ("multi_weak", "relative", "strong", "weak")
        assert matrix["heuristic"] == ("multi_weak", "relative", "strong", "weak")
        assert matrix["brute_force"] == ("multi_weak", "relative", "strong", "weak")

    def test_available_engines_filtered_by_model(self):
        assert set(available_engines("multi_weak")) == {"exact", "heuristic", "brute_force"}
        assert set(available_engines("relative")) == {"exact", "heuristic", "brute_force"}

    def test_custom_engine_registration_and_dispatch(self):
        registry = EngineRegistry()

        @register_engine("fixed", models=("relative",), registry=registry)
        def fixed_engine(graph, query, context):
            return SolveReport(clique=frozenset(), model=query.model,
                               engine="fixed", k=query.k, delta=query.delta,
                               algorithm="Fixed")

        report = solve(paper_example_graph(),
                       FairCliqueQuery(model="relative", k=2, delta=1, engine="fixed"),
                       registry=registry)
        assert report.algorithm == "Fixed"
        with pytest.raises(UnsupportedQueryError):
            solve(paper_example_graph(),
                  FairCliqueQuery(model="weak", k=2, engine="fixed"),
                  registry=registry)

    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        registry.register("e", ("relative",), lambda g, q, c: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("e", ("relative",), lambda g, q, c: None)
        registry.register("e", ("weak",), lambda g, q, c: None, replace=True)
        assert registry.get("e").models == frozenset({"weak"})

    def test_unknown_model_in_registration_rejected(self):
        registry = EngineRegistry()
        with pytest.raises(ValueError, match="unknown model"):
            registry.register("e", ("relative", "cubic"), lambda g, q, c: None)


class TestParityWithLegacyEntrypoints:
    @pytest.mark.parametrize("graph_index", [0, 1, 2])
    @pytest.mark.parametrize("k,delta", [(2, 1), (3, 1), (2, 0)])
    def test_relative_exact_parity(self, graph_index, k, delta):
        graph = small_graphs()[graph_index]
        legacy = find_maximum_fair_clique(graph, k, delta)
        report = solve(graph, model="relative", k=k, delta=delta)
        assert report.size == legacy.size
        assert report.algorithm == legacy.algorithm

    @pytest.mark.parametrize("graph_index", [0, 1])
    def test_relative_brute_force_parity(self, graph_index):
        graph = small_graphs()[graph_index]
        legacy = brute_force_maximum_fair_clique(graph, 2, 1)
        report = solve(graph, model="relative", k=2, delta=1, engine="brute_force")
        assert report.size == legacy.size

    @pytest.mark.parametrize("graph_index", [0, 1, 2])
    def test_relative_heuristic_parity(self, graph_index):
        graph = small_graphs()[graph_index]
        legacy = HeurRFC().solve(graph, 2, 1)
        report = solve(graph, model="relative", k=2, delta=1, engine="heuristic")
        assert report.size == legacy.size

    @pytest.mark.parametrize("k", [2, 3])
    def test_weak_exact_parity(self, k):
        graph = paper_example_graph()
        legacy = find_maximum_weak_fair_clique(graph, k)
        report = solve(graph, model="weak", k=k)
        assert report.size == legacy.size

    def test_weak_brute_force_parity(self):
        graph = paper_example_graph()
        oracle = brute_force_maximum_weak_fair_clique(graph, 3)
        report = solve(graph, model="weak", k=3, engine="brute_force")
        assert report.size == len(oracle)

    @pytest.mark.parametrize("k", [2, 3])
    def test_strong_exact_parity(self, k):
        graph = paper_example_graph()
        legacy = find_maximum_strong_fair_clique(graph, k)
        report = solve(graph, model="strong", k=k)
        assert report.size == legacy.size

    def test_strong_brute_force_parity(self):
        graph = paper_example_graph()
        legacy = brute_force_maximum_fair_clique(graph, 2, 0)
        report = solve(graph, model="strong", k=2, engine="brute_force")
        assert report.size == legacy.size

    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_weak_exact_parity(self, k):
        graph = paper_example_graph()
        legacy = find_maximum_multi_weak_fair_clique(graph, k)
        report = solve(graph, model="multi_weak", k=k)
        assert report.size == legacy.size

    def test_multi_weak_brute_force_parity(self):
        graph = paper_example_graph()
        oracle = brute_force_maximum_multi_weak_fair_clique(graph, 2)
        report = solve(graph, model="multi_weak", k=2, engine="brute_force")
        assert report.size == len(oracle)

    def test_every_supported_pair_dispatches(self):
        graph = paper_example_graph()
        for model in ("relative", "weak", "strong", "multi_weak"):
            delta = 1 if model == "relative" else None
            for engine in available_engines(model):
                report = solve(graph, model=model, k=2, delta=delta, engine=engine)
                assert report.model == model
                assert report.engine == engine
                assert graph.is_clique(report.clique)


class TestSolveReport:
    def test_report_schema_binary(self):
        graph = paper_example_graph()
        report = solve(graph, model="relative", k=3, delta=1)
        assert report.found and report.size == 7
        assert sum(report.attribute_counts.values()) == 7
        assert report.fairness_gap <= 1
        assert report.optimal
        assert report.seconds >= 0.0
        flat = report.as_dict()
        assert flat["model"] == "relative" and flat["size"] == 7
        assert "size=7" in report.summary()

    def test_report_schema_multi_attribute(self):
        graph = paper_example_graph()
        report = solve(graph, model="multi_weak", k=3)
        assert report.model == "multi_weak"
        assert report.delta is None
        assert report.algorithm == "MaxMWFC+ub+GreedyMW"

    def test_empty_report_on_single_attribute_graph(self):
        from repro.graph.builders import complete_graph

        graph = complete_graph({i: "a" for i in range(6)})
        for engine in ("exact", "heuristic", "brute_force"):
            report = solve(graph, model="relative", k=2, delta=1, engine=engine)
            assert not report.found
            assert report.fairness_gap == 0


class TestBatchLayer:
    def test_solve_many_preserves_order_and_matches_single(self):
        graph = paper_example_graph()
        queries = query_grid(ks=(2, 3), deltas=(0, 1, 2))
        reports = solve_many(graph, queries)
        assert len(reports) == len(queries)
        for query, report in zip(queries, reports):
            assert (report.k, report.delta) == (query.k, query.delta)
            assert report.size == solve(graph, query).size

    def test_shared_reduction_hits_cache(self):
        graph = paper_example_graph()
        queries = query_grid(ks=(3,), deltas=(0, 1, 2))
        reports = solve_many(graph, queries)
        hits = [report.metadata.get("reduction_cache_hit") for report in reports]
        assert hits == [False, True, True]

    def test_parallel_execution_matches_sequential(self):
        graph = paper_example_graph()
        queries = query_grid(models=("relative", "weak"), ks=(2, 3), deltas=(0, 1))
        sequential = solve_many(graph, queries)
        parallel = solve_many(graph, queries, max_workers=2)
        assert [r.size for r in parallel] == [r.size for r in sequential]
        assert [r.model for r in parallel] == [q.model for q in queries]

    def test_parallel_single_k_sweep_still_splits_work(self):
        # A single-k delta sweep used to collapse into one sequential chunk;
        # it must now split across workers and still return correct results.
        graph = paper_example_graph()
        queries = query_grid(ks=(3,), deltas=(0, 1, 2, 3))
        parallel = solve_many(graph, queries, max_workers=2)
        sequential = solve_many(graph, queries)
        assert [r.size for r in parallel] == [r.size for r in sequential]
        assert [r.delta for r in parallel] == [0, 1, 2, 3]

    def test_parallel_rejects_custom_registry(self):
        registry = EngineRegistry()
        registry.register("e", ("relative",), lambda g, q, c: None)
        queries = [
            FairCliqueQuery(model="relative", k=2, delta=1, engine="e"),
            FairCliqueQuery(model="relative", k=3, delta=1, engine="e"),
        ]
        with pytest.raises(InvalidParameterError, match="worker"):
            solve_many(paper_example_graph(), queries, registry=registry,
                       max_workers=2)

    def test_mixed_engines_share_one_context(self):
        graph = paper_example_graph()
        base = FairCliqueQuery(model="relative", k=3, delta=1)
        reports = solve_many(
            graph,
            [base, base.with_engine("heuristic"), base.with_engine("brute_force")],
        )
        sizes = {report.engine: report.size for report in reports}
        assert sizes["exact"] == sizes["brute_force"] == 7
        assert sizes["heuristic"] <= 7
