"""Parity of the kernel-native bound evaluators against the dict bounds.

Every predefined bound (the ``ubAD`` group, the structural ``ub_deg``/``ub_h``
pair, and the colorful ``ubcd``/``ubch``/``ubcp`` trio) must produce the
*identical value* on identical ``(R, C)`` instances whether it is evaluated
through :mod:`repro.kernel.bounds` or through the dict implementations in
:mod:`repro.bounds` — that value-for-value agreement is what lets the kernel
search run any stack natively without changing a single prune decision.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession, solve
from repro.bounds.base import BoundStack, UpperBound, make_context
from repro.bounds.simple import UB_SIZE
from repro.bounds.stacks import ALL_BOUNDS, get_stack, stack_names
from repro.exceptions import InvalidParameterError
from repro.graph.builders import paper_example_graph
from repro.graph.components import connected_components
from repro.graph.generators import community_graph, erdos_renyi_graph
from repro.kernel.bounds import KERNEL_BOUNDS, evaluate_bound, stack_evaluate
from repro.kernel.view import SubgraphView
from repro.models import make_model
from repro.search.maxrfc import MaxRFC, build_search_config

BOUND_NAMES = sorted(ALL_BOUNDS)


def _graphs():
    return [
        ("paper", paper_example_graph()),
        ("er-sparse", erdos_renyi_graph(36, 0.15, seed=11)),
        ("er-dense", erdos_renyi_graph(30, 0.4, seed=23)),
        ("community", community_graph(3, 14, intra_probability=0.55,
                                      inter_edges=2, seed=5)),
    ]


def _instances(view, rng):
    """A spread of (clique_mask, cand_mask) pairs: root plus vertex-anchored."""
    pairs = [(0, view.full_mask)]
    for _ in range(4):
        p = rng.randrange(view.n)
        neighbors = view.adj[p]
        if neighbors:
            pairs.append((1 << p, neighbors))
            # Two-vertex R with the common neighbourhood as C, when possible.
            q = rng.choice([b for b in range(view.n) if neighbors >> b & 1])
            common = neighbors & view.adj[q]
            if common:
                pairs.append(((1 << p) | (1 << q), common))
    return [(clique, cand) for clique, cand in pairs if cand]


@pytest.mark.parametrize("bound_name", BOUND_NAMES)
def test_bound_value_parity_on_randomized_instances(bound_name):
    rng = random.Random(zlib.crc32(bound_name.encode()) & 0xFFFF)
    bound = ALL_BOUNDS[bound_name]
    checked = 0
    for _, graph in _graphs():
        kernel = graph.compile()
        for component in connected_components(graph):
            if len(component) < 4:
                continue
            view = SubgraphView(kernel, sorted(component, key=str))
            for clique_mask, cand_mask in _instances(view, rng):
                for k, delta in ((2, 1), (3, 0)):
                    kernel_value = evaluate_bound(
                        view, bound, clique_mask, cand_mask, k, delta
                    )
                    context = make_context(
                        graph,
                        view.frozenset_of(clique_mask),
                        view.frozenset_of(cand_mask),
                        k,
                        delta,
                    )
                    assert kernel_value == bound(context), (
                        bound_name, clique_mask, cand_mask, k, delta
                    )
                    checked += 1
    assert checked > 0


def test_every_predefined_stack_is_fully_kernel_native():
    """No Table II configuration falls back to the dict path anymore."""
    for name in stack_names():
        for bound in get_stack(name).bounds:
            assert bound.name in KERNEL_BOUNDS, (name, bound.name)


def test_stack_evaluate_matches_dict_stack():
    graph = erdos_renyi_graph(28, 0.3, seed=9)
    kernel = graph.compile()
    component = max(connected_components(graph), key=len)
    view = SubgraphView(kernel, sorted(component, key=str))
    for stack_name in stack_names():
        stack = get_stack(stack_name)
        kernel_value = stack_evaluate(view, stack, 0, view.full_mask, 2, 1)
        context = make_context(
            graph, frozenset(), view.frozenset_of(view.full_mask), 2, 1
        )
        assert kernel_value == stack.evaluate(context), stack_name


@pytest.mark.parametrize("model", ["relative", "multi_weak"])
def test_custom_bound_is_refused_by_name(model):
    """A stack holding a bound outside KERNEL_BOUNDS has no evaluator the
    search could run: the model refuses it, naming the bound, and so do a
    serial solve, a sharded solve and ``explain``, before any search."""
    probe = UpperBound("ub_custom_probe", lambda context: len(context.scope),
                       cost_rank=99)
    stack = BoundStack((UB_SIZE, probe))
    graph = paper_example_graph()
    delta = 1 if model == "relative" else None

    def refused():
        return pytest.raises(InvalidParameterError, match="ub_custom_probe")

    with refused():
        make_model(model, 2, delta, graph).resolve_bound_stack(stack)
    for workers in (None, 2):
        query = FairCliqueQuery(model=model, k=2, delta=delta, workers=workers,
                                options={"bound_stack": stack})
        with refused():
            solve(graph, query)
    with refused():
        MaxRFC(build_search_config(bound_stack=stack)).solve_model(
            graph, make_model(model, 2, delta, graph)
        )
    with FairCliqueSession(graph) as session, refused():
        session.explain(FairCliqueQuery(model=model, k=2, delta=delta,
                                        options={"bound_stack": stack}))


@pytest.mark.parametrize("stack_name", ["ubAD+ubcd", "ubAD+ubch", "ubAD+ubcp",
                                        "ubAD+ub_deg", "ubAD+ub_h"])
def test_colorful_stacks_solve_optimally(stack_name, oracle):
    """The end-to-end pin for the ablation stacks, which run natively: the
    answer must match the kernel-free oracle."""
    graphs = [
        paper_example_graph(),
        erdos_renyi_graph(26, 0.35, seed=3),
        community_graph(2, 12, intra_probability=0.6, inter_edges=1, seed=8),
    ]
    config = build_search_config(bound_stack=stack_name, use_heuristic=False)
    for graph in graphs:
        result = MaxRFC(config).solve(graph, 2, 1)
        oracle.check(graph, result, "relative", 2, 1, label=stack_name)
