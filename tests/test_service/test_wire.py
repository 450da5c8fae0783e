"""Round-trip tests for the wire formats of the service tier.

The satellite contract: ``FairCliqueQuery``, ``SolveReport``, ``Incumbent``,
and ``QueryPlan`` all serialise to plain JSON and rebuild exactly — field
for field — so the remote client can hand back the same objects the
in-process API does.  Plus the envelope/graph helpers of
``repro.service.wire``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession
from repro.api.report import SolveReport
from repro.api.session import Incumbent, QueryPlan
from repro.exceptions import InvalidParameterError
from repro.graph.builders import paper_example_graph
from repro.service.http import HTTPError
from repro.service.wire import (
    dumps,
    error_body,
    graph_from_wire,
    graph_to_wire,
    parse_json_body,
    parse_query_request,
)

ALL_MODELS = ("relative", "weak", "strong", "multi_weak")


def _query(model: str, k: int = 2, **extra) -> FairCliqueQuery:
    delta = 1 if model == "relative" else None
    return FairCliqueQuery(model=model, k=k, delta=delta, **extra)


# --------------------------------------------------------------------------- #
# FairCliqueQuery
# --------------------------------------------------------------------------- #
class TestQueryWire:
    @pytest.mark.parametrize("query", [
        FairCliqueQuery(model="relative", k=3, delta=1),
        FairCliqueQuery(model="weak", k=2, engine="heuristic"),
        FairCliqueQuery(model="strong", k=2, task="enumerate"),
        FairCliqueQuery(model="multi_weak", k=2, task="top_k", count=5),
        FairCliqueQuery(model="relative", k=2, delta=1, time_limit=2.5,
                        workers=2),
        FairCliqueQuery(model="relative", k=2, delta=1,
                        options={"use_heuristic": False,
                                 "bound_stack": ["ub_size", "ub_color"]}),
    ])
    def test_round_trip(self, query):
        rebuilt = FairCliqueQuery.from_wire(query.to_wire())
        assert rebuilt == query
        assert hash(rebuilt) == hash(query)
        assert FairCliqueQuery.from_json(query.to_json()) == query

    def test_wire_is_sparse(self):
        # Defaults are omitted: a minimal query serialises minimally.
        assert FairCliqueQuery(model="weak", k=2).to_wire() == {
            "model": "weak", "k": 2,
        }

    def test_wire_is_json_clean(self):
        query = _query("relative", 3, time_limit=1.0,
                       options={"branch_limit": 10})
        assert json.loads(query.to_json()) == query.to_wire()

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown query field"):
            FairCliqueQuery.from_wire({"model": "weak", "k": 2, "dleta": 1})

    def test_non_object_rejected(self):
        with pytest.raises(InvalidParameterError, match="must be an object"):
            FairCliqueQuery.from_wire(["weak", 2])

    def test_from_wire_revalidates(self):
        # from_wire goes through the constructor: bad values still fail.
        with pytest.raises(InvalidParameterError):
            FairCliqueQuery.from_wire({"model": "weak", "k": 0})


# --------------------------------------------------------------------------- #
# SolveReport / Incumbent / QueryPlan — real solves, exact rebuilds
# --------------------------------------------------------------------------- #
class TestReportWire:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_solve_report_round_trip(self, model):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            report = session.solve(_query(model))
        rebuilt = SolveReport.from_wire(report.to_wire())
        assert rebuilt.clique == report.clique
        assert rebuilt.size == report.size
        assert rebuilt.model == report.model
        assert rebuilt.engine == report.engine
        assert rebuilt.k == report.k
        assert rebuilt.delta == report.delta
        assert rebuilt.algorithm == report.algorithm
        assert rebuilt.optimal == report.optimal
        assert rebuilt.aborted == report.aborted
        assert rebuilt.attribute_counts == report.attribute_counts
        assert rebuilt.metadata == report.metadata
        assert rebuilt.task == report.task
        assert rebuilt.cliques == report.cliques
        assert rebuilt.stats.as_dict() == report.stats.as_dict()
        assert SolveReport.from_json(report.to_json()).clique == report.clique

    def test_top_k_report_keeps_clique_list(self):
        from repro.graph.generators import erdos_renyi_graph

        graph = erdos_renyi_graph(20, 0.4, seed=7)
        with FairCliqueSession(graph) as session:
            report = session.solve(_query("relative", task="top_k", count=3))
        rebuilt = SolveReport.from_wire(report.to_wire())
        assert rebuilt.cliques == report.cliques
        assert rebuilt.cliques is not None and len(rebuilt.cliques) == 3

    def test_wire_payload_is_json_clean(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            report = session.solve(_query("relative"))
        assert json.loads(report.to_json()) == json.loads(
            json.dumps(report.to_wire(), sort_keys=True)
        )


class TestIncumbentWire:
    def test_stream_events_round_trip(self):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            events = list(session.stream(_query("relative", 3)))
        assert events and events[-1].final
        for event in events:
            rebuilt = Incumbent.from_wire(event.to_wire())
            assert rebuilt.size == event.size
            assert rebuilt.clique == event.clique
            assert rebuilt.final == event.final
            assert rebuilt.seconds == event.seconds
            if event.report is None:
                assert rebuilt.report is None
            else:
                assert rebuilt.report.clique == event.report.clique
        final = events[-1]
        assert Incumbent.from_json(final.to_json()).report.size == final.report.size


class TestQueryPlanWire:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_explain_plan_round_trip(self, model):
        graph = paper_example_graph()
        with FairCliqueSession(graph) as session:
            session.solve(_query(model))          # warm the caches
            plan = session.explain(_query(model))
        rebuilt = QueryPlan.from_wire(plan.to_wire())
        assert rebuilt == plan            # frozen dataclass: full field equality
        assert rebuilt.reduction_cached and rebuilt.kernel_ready
        assert QueryPlan.from_json(plan.to_json()) == plan
        # Older servers also sent the kernel storage name; it is ignored.
        legacy = {**plan.to_wire(), "kernel_backend": "numpy"}
        assert QueryPlan.from_wire(legacy) == plan


# --------------------------------------------------------------------------- #
# Envelope + graph payload helpers
# --------------------------------------------------------------------------- #
class TestEnvelope:
    def test_dumps_is_one_sorted_line(self):
        assert dumps({"b": 1, "a": 2}) == b'{"a": 2, "b": 1}\n'

    def test_error_body_shape(self):
        assert json.loads(error_body(404, "nope")) == {
            "error": "nope", "status": 404,
        }

    @pytest.mark.parametrize("body", [b"", b"[1, 2]", b"{not json"])
    def test_parse_json_body_rejects(self, body):
        with pytest.raises(HTTPError) as excinfo:
            parse_json_body(body)
        assert excinfo.value.status == 400

    def test_parse_query_request(self):
        body = dumps({
            "graph": "g1", "tier": "free",
            "query": {"model": "relative", "k": 3, "delta": 1},
        })
        graph_id, query, tier, payload = parse_query_request(body)
        assert graph_id == "g1"
        assert tier == "free"
        assert query == FairCliqueQuery(model="relative", k=3, delta=1)
        assert payload["graph"] == "g1"

    @pytest.mark.parametrize("payload, status", [
        ({"query": {"model": "weak", "k": 2}}, 400),              # no graph id
        ({"graph": "", "query": {"model": "weak", "k": 2}}, 400),  # empty id
        ({"graph": "g", "query": {"model": "weak", "k": 2},
          "tier": 3}, 400),                                        # bad tier type
        ({"graph": "g"}, 400),                                     # no query
        ({"graph": "g", "query": {"model": "nope", "k": 2}}, 422),  # bad model
        ({"graph": "g", "query": {"model": "weak", "k": 2,
                                  "typo": 1}}, 422),               # unknown field
    ])
    def test_parse_query_request_failures(self, payload, status):
        with pytest.raises(HTTPError) as excinfo:
            parse_query_request(dumps(payload))
        assert excinfo.value.status == status


class TestGraphWire:
    def test_round_trip(self):
        graph = paper_example_graph()
        rebuilt = graph_from_wire(graph_to_wire(graph))
        assert set(rebuilt.vertices()) == set(graph.vertices())
        assert rebuilt.num_edges == graph.num_edges
        assert all(
            rebuilt.attribute(v) == graph.attribute(v) for v in graph.vertices()
        )
        assert {frozenset(e) for e in rebuilt.edges()} == \
            {frozenset(e) for e in graph.edges()}

    def test_labels_survive(self):
        from repro.graph.attributed_graph import AttributedGraph

        graph = AttributedGraph()
        graph.add_vertex(1, "a", "alice")
        graph.add_vertex(2, "b", "bob")
        graph.add_edge(1, 2)
        rebuilt = graph_from_wire(graph_to_wire(graph))
        assert rebuilt.label(1) == "alice"
        assert rebuilt.label(2) == "bob"

    @pytest.mark.parametrize("payload, status", [
        ([1, 2], 400),
        ({"vertices": "nope", "edges": []}, 400),
        ({"vertices": [[1]], "edges": []}, 400),            # short vertex entry
        ({"vertices": [[1, "a"]], "edges": [[1]]}, 400),    # short edge entry
        ({"vertices": [[1, "a"]], "edges": [[1, 1]]}, 422),  # self loop
        ({"vertices": [[1, "a"]], "edges": [[1, 9]]}, 422),  # unknown endpoint
    ])
    def test_malformed_graphs(self, payload, status):
        with pytest.raises(HTTPError) as excinfo:
            graph_from_wire(payload)
        assert excinfo.value.status == status
