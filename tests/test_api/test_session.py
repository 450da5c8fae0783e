"""Tests for the session layer: prepared graphs, task axis, streaming, plans.

Covers the acceptance grid of the session PR: ``task="enumerate"`` against
the Bron–Kerbosch oracle, ``stream()``'s final incumbent against ``solve()``
for every model serially and with 2 workers, session artifact reuse, and
the query-hash regression.
"""

from __future__ import annotations

import pytest

from repro.api import (
    EngineRegistry,
    FairCliqueQuery,
    FairCliqueSession,
    UnsupportedQueryError,
    query_grid,
    solve,
    solve_many,
)
from repro.baselines.bron_kerbosch import enumerate_maximal_cliques_reference
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import paper_example_graph
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    quasi_clique_blobs,
)
from repro.models import make_model

ALL_MODELS = ("relative", "weak", "strong", "multi_weak")


def _query(model: str, k: int = 2, **extra) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(model=model, k=k, delta=delta, **extra)


def _recolor(graph: AttributedGraph, values) -> AttributedGraph:
    """Copy of ``graph`` with attributes cycling through ``values``."""
    recolored = AttributedGraph()
    for index, vertex in enumerate(sorted(graph.vertices(), key=str)):
        recolored.add_vertex(vertex, values[index % len(values)])
    for u, v in graph.edges():
        recolored.add_edge(u, v)
    return recolored


def _multi_component_graph() -> AttributedGraph:
    empty = erdos_renyi_graph(0, 0.0)
    return quasi_clique_blobs(empty, num_blobs=4, blob_size=30,
                              edge_probability=0.55, seed=3)


def _oracle_fair_maximal_cliques(graph: AttributedGraph, query: FairCliqueQuery):
    """Independent oracle: BK reference enumeration + fairness filter."""
    model = make_model(query.model, query.k, query.delta, graph)
    if not model.admits(graph):
        return set()
    active = model.bind(model.domain_of(graph))
    return {
        clique
        for clique in enumerate_maximal_cliques_reference(graph)
        if active.is_fair_histogram(graph.attribute_histogram(clique))
    }


# --------------------------------------------------------------------------- #
# Session basics: prepared graph, caches, pools, lifecycle
# --------------------------------------------------------------------------- #
class TestSessionBasics:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_solve_matches_module_level_solve(self, model):
        graph = paper_example_graph()
        query = _query(model)
        with FairCliqueSession(graph) as session:
            assert session.solve(query).size == solve(graph, query).size

    def test_repeated_queries_hit_the_reduction_cache(self):
        graph = community_graph(3, 10, intra_probability=0.9, inter_edges=2, seed=5)
        with FairCliqueSession(graph) as session:
            first = session.solve(model="relative", k=2, delta=1)
            assert session.cache_info()["reduction_misses"] == 1
            assert first.metadata["reduction_cache_hit"] is False
            # Different delta, same k: the reduction artifact is reused.
            second = session.solve(model="relative", k=2, delta=0)
            info = session.cache_info()
            assert info["reduction_hits"] == 1
            assert info["reductions"] == 1
            assert second.metadata["reduction_cache_hit"] is True
            # The warm answer is the cold one.
            assert second.size == solve(graph, model="relative", k=2, delta=0).size

    def test_solve_many_matches_batch_layer(self):
        graph = paper_example_graph()
        queries = query_grid(models=("relative", "weak"), ks=(2, 3), deltas=(0, 1))
        expected = [report.size for report in solve_many(graph, queries)]
        with FairCliqueSession(graph) as session:
            got = [report.size for report in session.solve_many(queries)]
        assert got == expected

    def test_session_pool_persists_across_batches(self):
        graph = _multi_component_graph()
        queries = query_grid(deltas=(0, 1, 2))
        expected = [report.size for report in solve_many(graph, queries)]
        with FairCliqueSession(graph) as session:
            first = session.solve_many(queries, max_workers=2)
            assert session.cache_info()["pool_workers"] == 2
            second = session.solve_many(queries, max_workers=2)
            assert [r.size for r in first] == expected
            assert [r.size for r in second] == expected
        assert session.cache_info()["pool_workers"] == 0  # closed with the session

    def test_mutated_graph_invalidates_the_session(self):
        graph = paper_example_graph()
        session = FairCliqueSession(graph)
        session.solve(model="relative", k=2, delta=1)
        graph.add_vertex("late", "a")
        with pytest.raises(InvalidParameterError, match="mutated"):
            session.solve(model="relative", k=2, delta=1)
        with pytest.raises(InvalidParameterError, match="mutated"):
            list(session.enumerate(model="weak", k=2))

    def test_closed_session_refuses_queries(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            session.solve(model="relative", k=2, delta=1)
        with pytest.raises(InvalidParameterError, match="closed"):
            session.solve(model="relative", k=2, delta=1)

    def test_custom_registry_solves_serially_but_not_pooled(self):
        registry = EngineRegistry()
        registry.register(
            "stub", ("relative",),
            lambda graph, query, context: solve(graph, query.with_engine("exact")),
        )
        graph = paper_example_graph()
        with FairCliqueSession(graph, registry=registry) as session:
            report = session.solve(_query("relative", engine="stub"))
            assert report.size == 7
            with pytest.raises(InvalidParameterError, match="custom registries"):
                session.solve_many(
                    [_query("relative", engine="stub")] * 2, max_workers=2
                )

    def test_query_validation_fails_fast_in_batches(self):
        graph = paper_example_graph()
        bad = _query("relative", engine="heuristic").with_task("enumerate")
        with FairCliqueSession(graph) as session:
            with pytest.raises(UnsupportedQueryError, match="enumeration"):
                session.solve_many([_query("relative"), bad])


class TestKernelReuse:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_solves_compile_no_kernel(self, count_compiles, workers):
        """After the first solve the session holds the reduced graph's kernel:
        the seed and the search of every later query read it."""
        graph = quasi_clique_blobs(AttributedGraph(), 3, 40, 0.5, seed=3)
        with FairCliqueSession(graph) as session:
            session.solve(model="relative", k=2, delta=1, workers=workers)
            assert count_compiles
            count_compiles.clear()
            for delta in (0, 2, 1):
                report = session.solve(model="relative", k=2, delta=delta, workers=workers)
                assert report.metadata["reduction_cache_hit"] is True
                assert report.stats.extra["heuristic_size"] > 0
            session.solve(model="weak", k=2, workers=workers)
            assert count_compiles == []


# --------------------------------------------------------------------------- #
# The task axis on the query object
# --------------------------------------------------------------------------- #
class TestTaskValidation:
    def test_unknown_task_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown task"):
            FairCliqueQuery(model="weak", k=2, task="minimum")

    def test_top_k_requires_count(self):
        with pytest.raises(InvalidParameterError, match="count"):
            FairCliqueQuery(model="weak", k=2, task="top_k")
        with pytest.raises(InvalidParameterError, match="count"):
            FairCliqueQuery(model="weak", k=2, task="top_k", count=0)

    def test_count_outside_top_k_rejected(self):
        with pytest.raises(InvalidParameterError, match="count"):
            FairCliqueQuery(model="weak", k=2, count=3)

    def test_enumeration_needs_an_enumeration_engine(self):
        graph = paper_example_graph()
        with pytest.raises(UnsupportedQueryError, match="no heuristic"):
            solve(graph, _query("weak", engine="heuristic").with_task("enumerate"))

    def test_enumeration_rejects_options_and_time_limit(self):
        # Neither is honoured by the enumeration traversal; silently
        # dropping a time budget would turn a hang into a surprise.
        graph = paper_example_graph()
        with pytest.raises(UnsupportedQueryError, match="no engine options"):
            solve(graph, FairCliqueQuery(model="weak", k=2, task="enumerate",
                                         options={"use_heuristic": False}))
        with pytest.raises(UnsupportedQueryError, match="time_limit"):
            solve(graph, FairCliqueQuery(model="weak", k=2, task="enumerate",
                                         time_limit=5.0))

    def test_with_task_round_trip(self):
        query = _query("weak")
        top = query.with_task("top_k", 3)
        assert top.task == "top_k" and top.count == 3
        assert query.task == "maximum" and query.count is None
        assert "top_3" in top.label()


class TestQueryHashRegression:
    def test_list_valued_options_are_hashable(self):
        # Regression: this raised TypeError before option canonicalisation.
        query = FairCliqueQuery(
            model="relative", k=2, delta=1,
            options={"bound_stack": ["ub_size", "ub_color"]},
        )
        twin = FairCliqueQuery(
            model="relative", k=2, delta=1,
            options={"bound_stack": ["ub_size", "ub_color"]},
        )
        assert hash(query) == hash(twin)
        assert len({query, twin}) == 1

    def test_nested_and_set_valued_options_are_hashable(self):
        query = FairCliqueQuery(
            model="weak", k=2,
            options={"nested": {"values": [1, 2], "flags": {"a", "b"}}},
        )
        twin = FairCliqueQuery(
            model="weak", k=2,
            options={"nested": {"flags": {"b", "a"}, "values": [1, 2]}},
        )
        assert hash(query) == hash(twin) and query == twin

    def test_distinct_options_usually_hash_differently(self):
        a = FairCliqueQuery(model="weak", k=2, options={"bound_stack": ["ubs"]})
        b = FairCliqueQuery(model="weak", k=2, options={"bound_stack": ["ubc"]})
        assert a != b
        assert len({a, b}) == 2


# --------------------------------------------------------------------------- #
# task="enumerate" / "top_k" against the Bron–Kerbosch oracle
# --------------------------------------------------------------------------- #
class TestEnumerate:
    #: (graph, domains to test) — binary random graphs plus recolored
    #: 3-valued copies for the multi-attribute model.
    def _graphs(self):
        return [
            paper_example_graph(),
            erdos_renyi_graph(18, 0.45, seed=7),
            erdos_renyi_graph(24, 0.35, seed=11),
            community_graph(3, 8, intra_probability=0.85, inter_edges=2, seed=5),
        ]

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("engine", ["exact", "brute_force"])
    def test_enumerate_matches_oracle_binary(self, model, engine):
        for graph in self._graphs():
            query = _query(model, engine=engine)
            with FairCliqueSession(graph) as session:
                got = set(session.enumerate(query))
            assert got == _oracle_fair_maximal_cliques(graph, query)

    @pytest.mark.parametrize("num_values", [2, 3])
    def test_enumerate_multi_weak_wider_domains(self, num_values):
        values = ("x", "y", "z")[:num_values]
        for seed in (3, 9):
            graph = _recolor(erdos_renyi_graph(20, 0.4, seed=seed), values)
            query = FairCliqueQuery(model="multi_weak", k=1, engine="exact")
            with FairCliqueSession(graph) as session:
                got = set(session.enumerate(query))
            assert got == _oracle_fair_maximal_cliques(graph, query)
            assert got  # k=1 on these graphs: the oracle set is non-trivial

    def test_relative_delta_actually_filters(self):
        graph = erdos_renyi_graph(18, 0.5, seed=13)
        loose = _query("weak")
        tight = FairCliqueQuery(model="relative", k=2, delta=0)
        with FairCliqueSession(graph) as session:
            weak_set = set(session.enumerate(loose))
            tight_set = set(session.enumerate(tight))
        assert tight_set <= weak_set
        assert all(
            abs(list(graph.attribute_histogram(c).values())[0] * 2 - len(c)) <= 0
            for c in tight_set
        )

    def test_binary_model_on_wider_domain_is_empty(self):
        graph = _recolor(erdos_renyi_graph(12, 0.5, seed=3), ("x", "y", "z"))
        with FairCliqueSession(graph) as session:
            assert list(session.enumerate(_query("relative"))) == []

    def test_enumerate_is_lazy(self):
        graph = erdos_renyi_graph(20, 0.5, seed=7)
        with FairCliqueSession(graph) as session:
            iterator = session.enumerate(model="weak", k=1)
            first = next(iterator)
        assert graph.is_clique(first)

    def test_solve_enumerate_report_is_sorted_and_valid(self):
        graph = erdos_renyi_graph(20, 0.45, seed=5)
        query = _query("weak").with_task("enumerate")
        report = solve(graph, query)
        assert report.task == "enumerate"
        assert report.cliques is not None
        sizes = [len(clique) for clique in report.cliques]
        assert sizes == sorted(sizes, reverse=True)
        if report.cliques:
            assert report.clique == report.cliques[0]
        model = make_model("weak", 2, None, graph)
        for clique in report.cliques:
            assert model.verify(graph, clique)
        assert report.metadata["maximal_fair_cliques"] == report.num_cliques

    def test_top_k_is_a_prefix_of_enumerate(self):
        graph = erdos_renyi_graph(22, 0.45, seed=9)
        base = _query("weak")
        full = solve(graph, base.with_task("enumerate"))
        top = solve(graph, base.with_task("top_k", 2))
        assert top.task == "top_k"
        assert top.cliques == full.cliques[:2]
        assert top.num_cliques <= 2

    def test_enumerate_through_solve_many_and_pool(self):
        graph = erdos_renyi_graph(16, 0.5, seed=3)
        queries = [
            _query("weak").with_task("enumerate"),
            _query("relative"),
            _query("weak").with_task("top_k", 1),
        ]
        serial = solve_many(graph, queries)
        pooled = solve_many(graph, queries, max_workers=2)
        assert [r.task for r in serial] == ["enumerate", "maximum", "top_k"]
        assert [r.cliques for r in serial] == [r.cliques for r in pooled]
        assert [r.size for r in serial] == [r.size for r in pooled]


# --------------------------------------------------------------------------- #
# stream(): monotone incumbents, final == solve
# --------------------------------------------------------------------------- #
class TestStream:
    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("workers", [None, 2])
    def test_stream_monotone_and_final_matches_solve(self, model, workers):
        graph = _multi_component_graph()
        if model == "multi_weak":
            graph = _recolor(graph, ("x", "y", "z"))
        query = _query(model, workers=workers)
        with FairCliqueSession(graph) as session:
            events = list(session.stream(query))
            reference = session.solve(query)
        assert events, "a stream always ends with its final event"
        *improvements, final = events
        assert final.final and final.report is not None
        sizes = [event.size for event in improvements]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        assert all(not event.final for event in improvements)
        # The final event is the full report, and it answers exactly what a
        # plain solve of the same query answers.
        assert final.size == reference.size
        assert final.clique == final.report.clique
        made = make_model(model, 2, 1 if model == "relative" else None, graph)
        if final.size:
            assert made.verify(graph, final.report.clique)

    def test_serial_improvements_carry_the_clique(self):
        graph = _multi_component_graph()
        with FairCliqueSession(graph) as session:
            events = list(session.stream(_query("relative")))
        for event in events[:-1]:
            assert event.clique is not None
            assert len(event.clique) == event.size
            assert graph.is_clique(event.clique)

    def test_stream_sees_the_heuristic_seed(self):
        graph = _multi_component_graph()
        with FairCliqueSession(graph) as session:
            first = next(iter(session.stream(_query("relative"))))
        assert first.size > 0

    def test_stream_warms_the_session_cache(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            list(session.stream(model="relative", k=2, delta=1))
            session.solve(model="relative", k=2, delta=0)
            assert session.cache_info()["reduction_hits"] == 1

    def test_stream_rejects_non_exact_engines_and_tasks(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            with pytest.raises(UnsupportedQueryError, match="exact"):
                next(iter(session.stream(_query("relative", engine="heuristic"))))
            with pytest.raises(UnsupportedQueryError, match="incumbent"):
                next(iter(session.stream(_query("weak").with_task("enumerate"))))


# --------------------------------------------------------------------------- #
# explain(): plans without solving
# --------------------------------------------------------------------------- #
class TestExplain:
    def test_explain_does_not_solve_or_warm(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            plan = session.explain(model="relative", k=3, delta=1)
            info = session.cache_info()
        assert info["reductions"] == 0 and info["reduction_misses"] == 0
        assert plan.reduction_cached is False
        assert plan.reduction_stages == (
            "EnColorfulCore", "ColorfulSup", "EnColorfulSup",
        )
        assert plan.bound_stack is not None and "ubs" in plan.bound_stack
        assert plan.algorithm == "MaxRFC+ub+HeurRFC"

    def test_explain_reports_warm_cache_and_shard_plan(self):
        graph = _multi_component_graph()
        query = _query("relative", workers=2)
        with FairCliqueSession(graph) as session:
            cold = session.explain(query)
            assert cold.shard_plan is None
            assert any("not cached" in note for note in cold.notes)
            session.solve(query)
            warm = session.explain(query)
        assert warm.reduction_cached and warm.kernel_ready
        assert warm.shard_plan is not None and warm.shard_plan["shards"] >= 2

    def test_explain_notes_bound_stack_substitution(self):
        graph = _recolor(paper_example_graph(), ("x", "y", "z"))
        with FairCliqueSession(graph) as session:
            plan = session.explain(
                FairCliqueQuery(model="multi_weak", k=2,
                                options={"bound_stack": "ubAD"})
            )
        assert plan.bound_stack_substituted is not None
        assert plan.bound_stack == ("ubs", "ubc")

    def test_explain_enumeration_and_heuristic_plans(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            enum_plan = session.explain(_query("weak").with_task("enumerate"))
            heur_plan = session.explain(_query("weak", engine="heuristic", workers=4))
        assert enum_plan.algorithm == "FairBK(kernel)"
        assert enum_plan.reduction_stages == ()
        assert heur_plan.algorithm == "HeurRFC"
        assert any("serially" in note for note in heur_plan.notes)

    @pytest.mark.parametrize("state,line", [
        ("cold", "kernel     bitset/CSR"),
        ("compiled", "kernel     bitset/CSR  [compiled]"),
        ("patched", "kernel     bitset/CSR  [patched +1 delta(s)]"),
    ], ids=["cold", "compiled", "patched"])
    def test_summary_kernel_line(self, state, line):
        """The kernel line gives the snapshot's provenance and nothing else."""
        graph = paper_example_graph()
        if state != "cold":
            graph.compile()
        if state == "patched":
            graph.remove_edge(*sorted(graph.edges(), key=str)[0])
            graph.compile()
        with FairCliqueSession(graph) as session:
            plan = session.explain(_query("relative", k=3))
        assert plan.kernel_ready == (state != "cold")
        lines = plan.summary().splitlines()
        assert [text for text in lines if text.startswith("kernel")] == [line]

    def test_explain_fails_fast_like_solve(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            with pytest.raises(UnsupportedQueryError, match="unknown engine"):
                session.explain(_query("relative", engine="quantum"))
            with pytest.raises(UnsupportedQueryError, match="no heuristic"):
                session.explain(_query("weak", engine="heuristic").with_task("enumerate"))

    def test_plan_serialises_and_summarises(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            plan = session.explain(model="relative", k=3, delta=1)
        as_dict = plan.as_dict()
        assert as_dict["engine"] == "exact" and as_dict["task"] == "maximum"
        text = plan.summary()
        assert "EnColorfulCore" in text and "relative" in text
