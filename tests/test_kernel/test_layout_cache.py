"""The kernel's cached component layouts: reuse, lifetime and invalidation.

``GraphKernel.component_layout`` builds each searched component's layout
once per kernel.  These tests pin that a warm re-solve builds none and
colors each component's scope in degree order only at its root, that the
cache forms no reference cycle, and that a patched kernel starts without it.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import FairCliqueQuery, FairCliqueSession
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.generators import quasi_clique_blobs
from repro.kernel.compile import GraphKernel
from repro.kernel.search import KernelBranchAndBound
from repro.kernel.view import ComponentLayout, SubgraphView


def _blobs() -> AttributedGraph:
    """Three dense blobs: every component survives reduction and searches."""
    return quasi_clique_blobs(AttributedGraph(), 3, 40, 0.5, seed=3)


def _counting(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so every call appends to the returned list."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("workers", [None, 2])
def test_a_dropped_session_leaves_no_cyclic_garbage(workers):
    """Kernels, views and graphs are freed by reference counting alone:
    with every unreachable cycle saved, none of them shows up."""
    graph = _blobs()
    query = FairCliqueQuery(model="relative", k=2, delta=1, workers=workers)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        session = FairCliqueSession(graph)
        assert session.solve(query).optimal
        session.close()
        del session, graph
        gc.collect()
        leaked = [
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, (GraphKernel, SubgraphView, AttributedGraph))
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_a_warm_resolve_builds_no_layout_and_colors_only_at_roots(monkeypatch):
    graph = _blobs()
    session = FairCliqueSession(graph)
    query = FairCliqueQuery(model="relative", k=2, delta=1)
    first = session.solve(query)
    builds = _counting(monkeypatch, ComponentLayout, "__init__")
    colorings = _counting(monkeypatch, SubgraphView, "color_class_masks")
    searched = _counting(monkeypatch, KernelBranchAndBound, "run")
    again = session.solve(query)
    assert again.size == first.size
    assert searched, "the warm re-solve must still search a component"
    assert builds == []
    assert len(colorings) <= len(searched)


def test_a_patched_kernel_starts_without_layouts():
    """After ``mutate()`` and ``refresh()`` the session searches a patched
    kernel that builds its own layouts and answers like a fresh session."""
    graph = _blobs()
    query = FairCliqueQuery(
        model="relative", k=2, delta=1, options={"use_reduction": False},
    )
    session = FairCliqueSession(graph)
    report = session.solve(query)
    old = graph.compile()
    assert old._layouts
    u, v = sorted(report.clique, key=str)[:2]
    with graph.mutate() as g:
        g.remove_edge(u, v)
    session.refresh()
    patched = graph.compile()
    assert graph.kernel_provenance()["origin"] == "patched"
    assert patched is not old
    assert patched._layouts is None
    warm = session.solve(query)
    fresh = FairCliqueSession(graph.copy()).solve(query)
    assert warm.optimal and fresh.optimal
    assert warm.size == fresh.size
    assert patched._layouts
