"""Unified fair-clique query API: one front door for every model and solver.

The repo's solvers (MaxRFC, HeurRFC, brute-force enumeration, the
weak/strong/multi-attribute variants) are all reachable through four
concepts:

* :class:`FairCliqueQuery` — a declarative description of the question
  (fairness model, ``k``/``delta``, engine, *task* — maximum / enumerate /
  top_k — and engine options);
* :class:`FairCliqueSession` — a prepared graph answering many queries:
  memoized reductions and kernels, a persistent batch pool, lazy
  ``enumerate()``, incumbent ``stream()``\\ ing, and ``explain()`` plans;
* :func:`solve` / :func:`solve_many` — the one-shot wrappers over an
  ephemeral session;
* :class:`SolveReport` — the unified result schema every engine returns.

Example
-------
>>> from repro.api import FairCliqueSession, FairCliqueQuery, solve
>>> from repro.graph import paper_example_graph
>>> graph = paper_example_graph()
>>> solve(graph, model="relative", k=3, delta=1).size
7
>>> with FairCliqueSession(graph) as session:
...     session.solve(model="relative", k=3, delta=1).size
...     sorted(len(c) for c in session.enumerate(model="weak", k=2))
7
[8]

Engines self-register with :func:`register_engine`; unsupported
(model, engine) combinations — and tasks an engine cannot answer — raise
:class:`~repro.exceptions.UnsupportedQueryError` before any work starts.
"""

from repro.api.batch import SolveContext, solve, solve_many
from repro.api.engines import brute_force_engine, exact_engine, heuristic_engine
from repro.api.query import DELTA_MODELS, MODELS, TASKS, FairCliqueQuery, query_grid
from repro.api.registry import (
    Engine,
    EngineRegistry,
    available_engines,
    default_registry,
    register_engine,
)
from repro.api.report import SolveReport
from repro.api.session import FairCliqueSession, Incumbent, QueryPlan
from repro.api.tasks import iter_fair_cliques
from repro.exceptions import UnsupportedQueryError

__all__ = [
    "FairCliqueSession",
    "Incumbent",
    "QueryPlan",
    "FairCliqueQuery",
    "SolveReport",
    "SolveContext",
    "solve",
    "solve_many",
    "query_grid",
    "iter_fair_cliques",
    "MODELS",
    "DELTA_MODELS",
    "TASKS",
    "Engine",
    "EngineRegistry",
    "register_engine",
    "available_engines",
    "default_registry",
    "UnsupportedQueryError",
    "exact_engine",
    "heuristic_engine",
    "brute_force_engine",
]
