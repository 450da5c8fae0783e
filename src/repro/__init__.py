"""repro — maximum fair clique search over attributed graphs.

A from-scratch Python reproduction of *"Efficient Maximum Fair Clique Search
over Large Networks"* (ICDE 2025), grown into a queryable system.  The
package provides:

* :class:`~repro.graph.AttributedGraph` and synthetic workload generators;
* the reduction pipeline (EnColorfulCore, ColorfulSup, EnColorfulSup);
* the upper bounds of Section IV and the MaxRFC branch-and-bound;
* the linear-time HeurRFC heuristic, brute-force baselines, and the
  weak/strong/multi-attribute model variants;
* a **session-centric query API** (:mod:`repro.api`): a
  :class:`FairCliqueSession` prepares a graph once and answers maximum /
  enumerate / top-k tasks against it with shared artifacts, incumbent
  streaming (``session.stream``), and query plans (``session.explain``);
  :func:`solve`/:func:`solve_many` are one-shot wrappers over an ephemeral
  session, dispatching every (model, engine) combination through one
  registry;
* a **component-sharded parallel executor** (:mod:`repro.parallel`) that
  fans the post-reduction search over a process pool — request it with
  ``workers=N`` on a query;
* dataset stand-ins and the experiment harness reproducing the paper's
  tables and figures.

Quickstart
----------
The unified API is the preferred surface: describe the question as a
:class:`FairCliqueQuery` (or keyword fields) and let the registry pick the
solver:

>>> from repro import FairCliqueQuery, solve, solve_many, query_grid
>>> from repro.graph import paper_example_graph
>>> graph = paper_example_graph()
>>> report = solve(graph, model="relative", k=3, delta=1)
>>> report.size
7
>>> report.attribute_counts          # doctest: +SKIP
{'a': 4, 'b': 3}

Models: ``relative`` (the paper's model), ``weak``, ``strong``, and
``multi_weak`` (any number of attribute values) — all four backed by the
pluggable :mod:`repro.models` fairness-model layer, so every engine
(``exact``, ``heuristic``, ``brute_force``) supports every model, the exact
engine runs them all on the bitset kernel with ``workers=N``, and
unknown engines / custom unsupported pairs still fail fast.

Sweeps run through :func:`solve_many`, which memoizes the reduction pipeline
across same-``k`` queries and can fan out over a process pool:

>>> reports = solve_many(graph, query_grid(ks=(2, 3), deltas=(0, 1)))
>>> [(r.k, r.delta, r.size) for r in reports]  # doctest: +SKIP
[(2, 0, 6), (2, 1, 7), (3, 0, 6), (3, 1, 7)]

The pre-existing convenience functions (:func:`find_maximum_fair_clique`,
:func:`heuristic_fair_clique`, …) remain as thin shims over the same solvers
the registry dispatches to.
"""

from repro.api import (
    FairCliqueQuery,
    FairCliqueSession,
    Incumbent,
    QueryPlan,
    SolveContext,
    SolveReport,
    available_engines,
    query_grid,
    register_engine,
    solve,
    solve_many,
)
from repro.baselines import brute_force_maximum_fair_clique, enumerate_maximal_cliques
from repro.bounds import BoundStack, get_stack, stack_names
from repro.exceptions import (
    AttributeCountError,
    DatasetError,
    GraphError,
    InvalidParameterError,
    ReproError,
    SearchError,
    UnsupportedQueryError,
)
from repro.graph import AttributedGraph, from_edge_list, paper_example_graph
from repro.heuristic import HeurRFC, heuristic_fair_clique
from repro.kernel import GraphKernel, compile_kernel
from repro.models import (
    FairnessModel,
    MultiWeakFairness,
    RelativeFairness,
    StrongFairness,
    WeakFairness,
    make_model,
)
from repro.parallel import ParallelMaxRFC, solve_parallel
from repro.reduction import ReductionPipeline, reduce_graph
from repro.search import (
    MaxRFC,
    MaxRFCConfig,
    SearchResult,
    find_maximum_fair_clique,
    is_relative_fair_clique,
    maximum_fair_clique_size,
)

__version__ = "1.1.0"

__all__ = [
    # unified query API (sessions are the long-lived surface)
    "FairCliqueSession",
    "Incumbent",
    "QueryPlan",
    "FairCliqueQuery",
    "SolveReport",
    "SolveContext",
    "solve",
    "solve_many",
    "query_grid",
    "register_engine",
    "available_engines",
    # compiled graph kernel (freeze boundary)
    "GraphKernel",
    "compile_kernel",
    # pluggable fairness models
    "FairnessModel",
    "RelativeFairness",
    "WeakFairness",
    "StrongFairness",
    "MultiWeakFairness",
    "make_model",
    # parallel component-sharded search
    "ParallelMaxRFC",
    "solve_parallel",
    # graph + legacy entry points
    "AttributedGraph",
    "from_edge_list",
    "paper_example_graph",
    "find_maximum_fair_clique",
    "maximum_fair_clique_size",
    "is_relative_fair_clique",
    "MaxRFC",
    "MaxRFCConfig",
    "SearchResult",
    "HeurRFC",
    "heuristic_fair_clique",
    "ReductionPipeline",
    "reduce_graph",
    "BoundStack",
    "get_stack",
    "stack_names",
    "brute_force_maximum_fair_clique",
    "enumerate_maximal_cliques",
    # exceptions
    "ReproError",
    "GraphError",
    "AttributeCountError",
    "InvalidParameterError",
    "SearchError",
    "DatasetError",
    "UnsupportedQueryError",
    "__version__",
]
