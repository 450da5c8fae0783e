"""Tour of the unified query API: one front door for every model and engine.

The repo's solvers — MaxRFC, HeurRFC, the brute-force oracle, and the
weak/strong/multi-attribute variants — are all reachable through four
concepts:

* ``FairCliqueQuery``   — a declarative description of the question
  (including its *task*: maximum / enumerate / top_k);
* ``FairCliqueSession`` — a prepared graph answering many queries with
  shared artifacts (see ``examples/session_tasks.py`` for the full tour);
* ``solve`` / ``solve_many`` — one-shot wrappers over an ephemeral session;
* ``SolveReport``       — the unified result schema every engine returns.

The batch/session layer is where the design pays off: a k × delta sweep
shares one reduction-pipeline run per distinct ``k`` instead of re-reducing
the graph for every query.

Run with::

    python examples/unified_api.py
"""

from __future__ import annotations

import time

from repro import (
    FairCliqueQuery,
    FairCliqueSession,
    UnsupportedQueryError,
    available_engines,
    query_grid,
    solve,
    solve_many,
)
from repro.datasets import load_dataset
from repro.graph import paper_example_graph


def single_queries() -> None:
    graph = paper_example_graph()
    print("=== One graph, every model, every engine ===")
    query = FairCliqueQuery(model="relative", k=3, delta=1)
    for engine in available_engines("relative"):
        report = solve(graph, query.with_engine(engine))
        print(f"  {report.summary()}")
    print()

    # Delta-free models omit delta; the registry routes each to a solver
    # that understands it.
    for model in ("weak", "strong", "multi_weak"):
        report = solve(graph, model=model, k=3)
        print(f"  {report.summary()}")
    print()

    # Every built-in engine now supports every model (the FairnessModel
    # layer closed the historic (multi_weak, heuristic) gap); querying an
    # unknown engine still fails fast with the registry's matrix.
    report = solve(graph, model="multi_weak", k=2, engine="heuristic")
    print(f"  {report.summary()}")
    try:
        solve(graph, model="multi_weak", k=2, engine="quantum")
    except UnsupportedQueryError as error:
        print(f"  rejected as expected: {error}")
    print()


def batched_sweep() -> None:
    print("=== k x delta sweep on one session ===")
    graph = load_dataset("DBLP", scale=0.3)
    queries = query_grid(ks=(4, 5), deltas=(0, 1, 2, 3))

    with FairCliqueSession(graph) as session:
        started = time.monotonic()
        reports = session.solve_many(queries)  # shared reduction per distinct k
        cold = time.monotonic() - started
        started = time.monotonic()
        session.solve_many(queries)            # warm: every artifact cached
        warm = time.monotonic() - started
        info = session.cache_info()

    print(f"  {'k':>3s} {'delta':>5s} {'size':>4s}  balance")
    for query, report in zip(queries, reports):
        print(f"  {query.k:>3d} {query.delta:>5d} {report.size:>4d}  "
              f"{report.attribute_counts}")
    print(f"  cold sweep: {cold:.3f}s   warm repeat: {warm:.3f}s   "
          f"speedup: {cold / max(warm, 1e-9):.1f}x   "
          f"(cache: {info['reduction_hits']} hits / "
          f"{info['reduction_misses']} misses)")
    print()


def parallel_search() -> None:
    print("=== Component-sharded parallel search (workers=2) ===")
    # Disconnected dense blobs are the executor's best case: every blob is
    # an independent shard after the reduction.
    from repro.graph.generators import erdos_renyi_graph, quasi_clique_blobs

    graph = quasi_clique_blobs(erdos_renyi_graph(0, 0.0), num_blobs=6,
                               blob_size=60, edge_probability=0.5, seed=3)
    serial = solve(graph, model="relative", k=2, delta=1)
    parallel = solve(
        graph, FairCliqueQuery(model="relative", k=2, delta=1, workers=2)
    )
    assert parallel.size == serial.size  # parallelism never changes the answer
    telemetry = parallel.metadata.get("parallel", {})
    print(f"  serial:   {serial.summary()}")
    print(f"  parallel: {parallel.summary()}")
    print(f"  shards={telemetry.get('shards')} "
          f"components={telemetry.get('components_searched')} "
          f"split={telemetry.get('components_split')}")
    print()


def main() -> None:
    single_queries()
    batched_sweep()
    parallel_search()


if __name__ == "__main__":
    main()
