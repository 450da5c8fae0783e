#!/usr/bin/env python3
"""Perf benchmarks — the machine-readable perf trajectory of the repo.

Seven suites share this driver:

* ``--suite kernel`` (default) runs a fixed seed-graph grid (n ≈ 2000
  generated stand-ins) through one ``ubAD`` bound-stack evaluation, once on
  the compiled bitset kernel (:mod:`repro.kernel.bounds`) and once through
  the reference bounds in :mod:`repro.bounds`, and writes median wall-clock
  numbers plus the speedup to ``benchmarks/results/BENCH_kernel.json``.
  End-to-end solve numbers come from ``perfbench/run.py``.
* ``--suite parallel`` runs a multi-component grid through the serial
  kernel search and the component-sharded parallel executor
  (``--workers N``), and writes serial/parallel wall-clock, speedups, and
  shard telemetry to ``benchmarks/results/BENCH_parallel.json``.
* ``--suite session`` runs a repeated k × delta sweep on one
  :class:`~repro.api.FairCliqueSession` per cell — the cold first sweep pays
  the reductions and kernel compiles, the warm repeat hits the session's
  artifact cache — and writes cold/warm wall-clock, the speedup, and the
  cache hit counters to ``benchmarks/results/BENCH_session.json``.
* ``--suite service`` boots the in-process HTTP service
  (:mod:`repro.service`) per cell and drives the same query sweep over the
  wire with ``--client-threads`` concurrent clients, three passes per
  repeat: *cold* (fresh server: sessions and result cache empty), *warm*
  (sessions warm, result cache cleared), and *cached* (result-cache hits,
  asserted > 0).  It writes queries/sec and client-side p50/p99 latency per
  pass to ``benchmarks/results/BENCH_service.json``.
* ``--suite chaos`` times the same solve twice — once with fault injection
  disabled (``maybe_fire`` is a single ``is None`` check) and once under an
  *inert* armed plan whose only spec can never match — and writes the
  plain/armed wall-clock and their ratio to
  ``benchmarks/results/BENCH_chaos.json``.  The gate asserts the hooks stay
  free: an armed-but-idle plan must not slow the solver down.
* ``--suite durability`` drives the same upload+solve loop over the wire
  once on an ephemeral service and once with a ``--data-dir`` WAL attached,
  then times a warm restart over the written logs, and writes the
  WAL-off/WAL-on wall-clock, their ratio, and the recovery time to
  ``benchmarks/results/BENCH_durability.json``.  The gate asserts the
  durable path stays cheap: fsynced graph acks and batched result appends
  must not meaningfully slow the service down.
* ``--suite incremental`` applies a small mutation batch to each cell's
  graph and times both halves of the incremental story: ``patch_kernel``
  against a recompile of the mutated graph (patched kernel asserted
  field-identical), and a warm ``session.refresh()`` + re-solve against a
  cold fresh-session solve (same optimum asserted).  Writes per-cell
  wall-clocks and speedups to ``benchmarks/results/BENCH_incremental.json``;
  ``--check`` additionally gates ``incremental_speedup`` at an absolute
  x1.00 floor — the whole subsystem exists to beat the cold path.

Every cell asserts *result parity* (kernel vs reference bounds: same bound
value; serial vs parallel: same optimal size and a verified fair clique;
cold vs warm: identical sweep sizes), so a bench run doubles as a parity
check on the exact grid it times.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                    # kernel grid
    PYTHONPATH=src python benchmarks/run_bench.py --suite parallel   # parallel grid
    PYTHONPATH=src python benchmarks/run_bench.py --suite session    # session cache grid
    PYTHONPATH=src python benchmarks/run_bench.py --smoke \
        --check benchmarks/results/BENCH_smoke_baseline.json         # perf gate
    PYTHONPATH=src python benchmarks/run_bench.py --suite parallel --smoke \
        --workers 2 \
        --check benchmarks/results/BENCH_parallel_smoke_baseline.json
    PYTHONPATH=src python benchmarks/run_bench.py --suite session --smoke \
        --check benchmarks/results/BENCH_session_smoke_baseline.json
    PYTHONPATH=src python benchmarks/run_bench.py --suite service --smoke \
        --check benchmarks/results/BENCH_service_smoke_baseline.json
    PYTHONPATH=src python benchmarks/run_bench.py --suite chaos --smoke \
        --check benchmarks/results/BENCH_chaos_smoke_baseline.json
    PYTHONPATH=src python benchmarks/run_bench.py --suite durability --smoke \
        --check benchmarks/results/BENCH_durability_smoke_baseline.json
    PYTHONPATH=src python benchmarks/run_bench.py --suite incremental --smoke \
        --check benchmarks/results/BENCH_incremental_smoke_baseline.json

``--check`` compares the freshly measured median speedup (a same-machine
ratio — kernel vs reference bounds, or parallel vs serial — so the gate is
hardware-independent) against the checked-in baseline and fails when it has
regressed by more than the tolerance factor (default 2x).  Note the parallel
speedup is also bounded by the runner's core count; ``cpu_count`` is
recorded in the report so single-core numbers read as what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.api import FairCliqueQuery, FairCliqueSession, query_grid, solve
from repro.bounds.base import make_context
from repro.bounds.stacks import get_stack
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.components import connected_components
from repro.graph.generators import (
    community_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    quasi_clique_blobs,
)
from repro.incremental import patch_kernel
from repro.kernel import compile_kernel
from repro.kernel.bounds import stack_evaluate
from repro.kernel.view import SubgraphView
from repro.models import make_model
from repro.parallel import ParallelMaxRFC
from repro.resilience.faults import FaultPlan, FaultSpec, fault_injection
from repro.search.maxrfc import MaxRFC, build_search_config

RESULTS_DIR = Path(__file__).parent / "results"
SCHEMA = "bench_kernel/v2"
PARALLEL_SCHEMA = "bench_parallel/v1"
SESSION_SCHEMA = "bench_session/v1"
SERVICE_SCHEMA = "bench_service/v1"
CHAOS_SCHEMA = "bench_chaos/v1"
DURABILITY_SCHEMA = "bench_durability/v1"
INCREMENTAL_SCHEMA = "bench_incremental/v1"
#: schema -> the medians key the --check gate compares.
CHECK_KEYS = {
    SCHEMA: "bounds_speedup",
    PARALLEL_SCHEMA: "parallel_speedup",
    SESSION_SCHEMA: "session_speedup",
    SERVICE_SCHEMA: "service_speedup",
    CHAOS_SCHEMA: "chaos_speedup",
    DURABILITY_SCHEMA: "durability_speedup",
    INCREMENTAL_SCHEMA: "incremental_speedup",
}


def full_grid():
    """The n≈2000 seed-graph grid (generator stand-ins for the paper's datasets)."""
    blobs_background = erdos_renyi_graph(1400, 0.003, seed=2)
    return [
        ("community-dense", community_graph(20, 100, intra_probability=0.35,
                                            inter_edges=4, seed=8), 2, 1),
        ("community-k3", community_graph(20, 100, intra_probability=0.45,
                                         inter_edges=4, seed=9), 3, 1),
        ("community-blocks", community_graph(100, 20, intra_probability=0.6,
                                             inter_edges=3, seed=1), 2, 1),
        ("quasi-blobs", quasi_clique_blobs(blobs_background, num_blobs=10,
                                           blob_size=60, edge_probability=0.5,
                                           seed=3), 2, 1),
        ("powerlaw", powerlaw_cluster_graph(2000, 8, 0.6, seed=4), 2, 1),
    ]


def smoke_grid():
    """A seconds-sized grid for the CI perf gate (same generators, smaller n)."""
    blobs_background = erdos_renyi_graph(250, 0.01, seed=2)
    return [
        ("community-dense", community_graph(6, 60, intra_probability=0.4,
                                            inter_edges=3, seed=8), 2, 1),
        ("quasi-blobs", quasi_clique_blobs(blobs_background, num_blobs=4,
                                           blob_size=40, edge_probability=0.5,
                                           seed=3), 2, 1),
        ("powerlaw", powerlaw_cluster_graph(500, 8, 0.6, seed=4), 2, 1),
    ]


def with_attribute_cycle(graph, values):
    """Copy ``graph`` with attributes re-assigned by cycling through ``values``.

    The generators emit binary attributes; the multi_weak cells need wider
    domains.  Cycling over the deterministic sorted vertex order keeps every
    value roughly equally represented inside each blob, so multi-valued fair
    cliques actually exist.
    """
    recolored = AttributedGraph()
    for index, vertex in enumerate(sorted(graph.vertices(), key=str)):
        recolored.add_vertex(vertex, values[index % len(values)])
    for u, v in graph.edges():
        recolored.add_edge(u, v)
    return recolored


def parallel_full_grid():
    """The multi-component n≈2000 grid for the parallel executor.

    Disconnected quasi-clique blobs give the executor what it shards best —
    many independent dense components that branch hard — plus one
    single-component cell that exercises the one-branch-level split path and
    two multi_weak cells (3- and 4-valued attribute domains) exercising the
    model layer's kernel + parallel path.
    """
    empty = erdos_renyi_graph(0, 0.0)
    ternary = ("x", "y", "z")
    quaternary = ("w", "x", "y", "z")
    return [
        ("blobs-10x200-p33", quasi_clique_blobs(empty, num_blobs=10, blob_size=200,
                                                edge_probability=0.33, seed=7),
         "relative", 2, 1),
        ("blobs-10x200-p36", quasi_clique_blobs(empty, num_blobs=10, blob_size=200,
                                                edge_probability=0.36, seed=7),
         "relative", 2, 1),
        ("blobs-10x200-p40", quasi_clique_blobs(empty, num_blobs=10, blob_size=200,
                                                edge_probability=0.40, seed=7),
         "relative", 2, 1),
        ("blobs-8x250-k3", quasi_clique_blobs(empty, num_blobs=8, blob_size=250,
                                              edge_probability=0.33, seed=13),
         "relative", 3, 1),
        ("blobs-4x500-k3", quasi_clique_blobs(empty, num_blobs=4, blob_size=500,
                                              edge_probability=0.25, seed=19),
         "relative", 3, 1),
        ("one-blob-400-split", quasi_clique_blobs(empty, num_blobs=1, blob_size=400,
                                                  edge_probability=0.40, seed=17),
         "relative", 2, 1),
        ("mw3-blobs-10x200", with_attribute_cycle(
            quasi_clique_blobs(empty, num_blobs=10, blob_size=200,
                               edge_probability=0.36, seed=7), ternary),
         "multi_weak", 2, None),
        ("mw4-blobs-8x250", with_attribute_cycle(
            quasi_clique_blobs(empty, num_blobs=8, blob_size=250,
                               edge_probability=0.33, seed=13), quaternary),
         "multi_weak", 2, None),
    ]


def parallel_smoke_grid():
    """A seconds-sized multi-component grid for the CI parallel perf gate."""
    empty = erdos_renyi_graph(0, 0.0)
    return [
        ("blobs-4x60", quasi_clique_blobs(empty, num_blobs=4, blob_size=60,
                                          edge_probability=0.55, seed=3),
         "relative", 2, 1),
        ("blobs-6x80", quasi_clique_blobs(empty, num_blobs=6, blob_size=80,
                                          edge_probability=0.50, seed=5),
         "relative", 2, 1),
        ("one-blob-150-split", quasi_clique_blobs(empty, num_blobs=1, blob_size=150,
                                                  edge_probability=0.45, seed=9),
         "relative", 2, 1),
        ("mw3-blobs-4x60", with_attribute_cycle(
            quasi_clique_blobs(empty, num_blobs=4, blob_size=60,
                               edge_probability=0.55, seed=3), ("x", "y", "z")),
         "multi_weak", 2, None),
    ]


def session_full_grid():
    """Graphs + sweep shapes for the session cold/warm cache suite.

    The sweep is the production shape (many queries, few distinct ``k``);
    the graphs are picked so the reduction pipeline is a substantial share
    of a cold solve — that is exactly the work a warm session stops paying.
    """
    blobs_background = erdos_renyi_graph(1400, 0.003, seed=2)
    return [
        ("powerlaw-2000", powerlaw_cluster_graph(2000, 8, 0.6, seed=4),
         (2, 3, 4), (0, 1, 2)),
        ("community-dense", community_graph(20, 100, intra_probability=0.35,
                                            inter_edges=4, seed=8),
         (2, 3), (0, 1, 2)),
        ("quasi-blobs", quasi_clique_blobs(blobs_background, num_blobs=10,
                                           blob_size=60, edge_probability=0.5,
                                           seed=3),
         (2, 3), (0, 1, 2)),
    ]


def session_smoke_grid():
    """A seconds-sized cold/warm grid for the CI session cache gate."""
    blobs_background = erdos_renyi_graph(250, 0.01, seed=2)
    return [
        ("powerlaw-500", powerlaw_cluster_graph(500, 8, 0.6, seed=4),
         (2, 3), (0, 1, 2)),
        ("quasi-blobs", quasi_clique_blobs(blobs_background, num_blobs=4,
                                           blob_size=40, edge_probability=0.5,
                                           seed=3),
         (2, 3), (0, 1)),
    ]


def service_full_grid():
    """Graphs + query sweeps for the HTTP service tier suite.

    The same production shape as the session suite — many queries, few
    distinct ``k`` — but driven over the wire by concurrent clients, so the
    numbers include HTTP framing, the admission gate, and the worker-thread
    hop.
    """
    blobs_background = erdos_renyi_graph(1400, 0.003, seed=2)
    return [
        ("powerlaw-2000", powerlaw_cluster_graph(2000, 8, 0.6, seed=4),
         ("relative",), (2, 3, 4), (0, 1, 2)),
        ("community-dense", community_graph(20, 100, intra_probability=0.35,
                                            inter_edges=4, seed=8),
         ("relative", "weak"), (2, 3), (0, 1, 2)),
        ("quasi-blobs", quasi_clique_blobs(blobs_background, num_blobs=10,
                                           blob_size=60, edge_probability=0.5,
                                           seed=3),
         ("relative", "weak"), (2, 3), (0, 1)),
    ]


def service_smoke_grid():
    """A seconds-sized service grid for the CI smoke gate."""
    blobs_background = erdos_renyi_graph(250, 0.01, seed=2)
    return [
        ("powerlaw-500", powerlaw_cluster_graph(500, 8, 0.6, seed=4),
         ("relative",), (2, 3), (0, 1)),
        ("quasi-blobs", quasi_clique_blobs(blobs_background, num_blobs=4,
                                           blob_size=40, edge_probability=0.5,
                                           seed=3),
         ("relative", "weak"), (2, 3), (0, 1)),
    ]


def chaos_full_grid():
    """Solve cells for the fault-hook overhead suite.

    The timed unit is the full :func:`repro.api.solve` path — reductions,
    heuristic seed, kernel search — because that is the path the seams
    thread through.  One cell runs the parallel executor so the worker-side
    seams (``pool.submit``, ``worker.init``, ``shard.run``) are crossed
    under the armed plan too.
    """
    empty = erdos_renyi_graph(0, 0.0)
    return [
        ("community-dense", community_graph(20, 100, intra_probability=0.35,
                                            inter_edges=4, seed=8), 2, 1, 1),
        ("powerlaw", powerlaw_cluster_graph(2000, 8, 0.6, seed=4), 2, 1, 1),
        ("blobs-parallel", quasi_clique_blobs(empty, num_blobs=6, blob_size=80,
                                              edge_probability=0.5, seed=5),
         2, 1, 2),
    ]


def chaos_smoke_grid():
    """A seconds-sized serial grid for the CI chaos overhead gate."""
    return [
        ("community-dense", community_graph(6, 60, intra_probability=0.4,
                                            inter_edges=3, seed=8), 2, 1, 1),
        ("powerlaw-500", powerlaw_cluster_graph(500, 8, 0.6, seed=4), 2, 1, 1),
    ]


def bench_chaos(graph, k, delta, repeats, workers):
    """Median solve seconds, fault hooks disabled vs an inert armed plan.

    The armed pass installs a plan whose single spec can never match (an
    impossible reduction stage name), so every seam the solve crosses pays
    the full active-plan bookkeeping — lock, context match, counter — yet
    no fault ever fires.  The pass must return the identical answer, and
    the plan's fired counter must still read zero afterwards.
    """
    inert = FaultPlan(specs=(FaultSpec(
        point="reduction.stage", action="raise",
        when={"stage": "__inert__"}, times=None,
    ),), seed=0)
    query = FairCliqueQuery(model="relative", k=k, delta=delta, workers=workers)
    timings = {}
    sizes = {}
    for label in ("plain", "armed"):
        samples = []
        for _ in range(repeats):
            if label == "armed":
                with fault_injection(inert):
                    started = time.monotonic()
                    report = solve(graph, query)
                    samples.append(time.monotonic() - started)
            else:
                started = time.monotonic()
                report = solve(graph, query)
                samples.append(time.monotonic() - started)
        timings[label] = median_of(samples)
        sizes[label] = report.size
    if sizes["plain"] != sizes["armed"]:
        raise AssertionError(
            f"inert plan changed the answer: {sizes}"
        )
    fired = sum(inert.fired.values())
    if fired:
        raise AssertionError(
            f"inert plan fired {fired} time(s); the spec must never match"
        )
    return {
        "plain_s": timings["plain"],
        "armed_s": timings["armed"],
        "speedup": timings["plain"] / max(timings["armed"], 1e-9),
        "clique_size": sizes["plain"],
        "plan_fired": fired,
    }


def run_chaos(mode: str, repeats: int) -> dict:
    grid = chaos_smoke_grid() if mode == "smoke" else chaos_full_grid()
    cells = []
    for name, graph, k, delta, workers in grid:
        print(f"[bench] {name}: n={graph.num_vertices} m={graph.num_edges} "
              f"k={k} delta={delta} workers={workers}", flush=True)
        cell = {
            "name": name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "k": k,
            "delta": delta,
            "workers": workers,
            **bench_chaos(graph, k, delta, repeats, workers),
        }
        print(f"        plain {cell['plain_s']:.3f}s  "
              f"armed {cell['armed_s']:.3f}s  x{cell['speedup']:.2f}",
              flush=True)
        cells.append(cell)
    medians = {
        "plain_s": median_of([cell["plain_s"] for cell in cells]),
        "armed_s": median_of([cell["armed_s"] for cell in cells]),
        "chaos_speedup": median_of([cell["speedup"] for cell in cells]),
    }
    return {
        "schema": CHAOS_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def durability_full_grid():
    """Graph counts for the WAL-overhead / warm-restart suite."""
    return [("wal-8", 8), ("wal-24", 24), ("wal-48", 48)]


def durability_smoke_grid():
    """A seconds-sized durability grid for the CI smoke gate."""
    return [("wal-6", 6), ("wal-12", 12)]


def bench_durability(num_graphs, repeats):
    """WAL-on vs WAL-off ingest+solve throughput, plus recovery wall-clock.

    Each repeat boots the in-process HTTP service twice — once ephemeral,
    once with a ``data_dir`` — and drives the identical upload+solve loop
    over the wire, so the WAL-on pass pays every real durability cost:
    the fsynced graph append before each ack and the batched result
    append after each solve.  Both passes must return identical sizes.
    The WAL-on run then times a *third* service constructed over the same
    data dir: that constructor replays the logs, so its wall-clock IS the
    warm-restart recovery time, and it must recover every graph.
    """
    from repro.service import (
        FairCliqueService,
        ServerHandle,
        ServiceClient,
        ServiceConfig,
    )

    # Realistic per-graph work (a three-component search that actually
    # branches, two queries per upload): the synced graph append is a fixed
    # per-upload cost, so trivial cells would time the WAL encoding instead
    # of the durable service.
    queries = [
        FairCliqueQuery(model="relative", k=2, delta=delta) for delta in (0, 1)
    ]
    graphs = [
        community_graph(3, 32, intra_probability=0.45, inter_edges=0, seed=seed)
        for seed in range(num_graphs)
    ]
    samples = {"off": [], "on": []}
    recovery_samples = []
    sizes = {}
    for _ in range(repeats):
        for label in ("off", "on"):
            data_dir = None
            if label == "on":
                data_dir = tempfile.mkdtemp(prefix="repro-bench-wal-")
            service = FairCliqueService(ServiceConfig(port=0, data_dir=data_dir))
            handle = ServerHandle.start(service)
            try:
                client = ServiceClient(handle.address, retries=0)
                pass_sizes = []
                started = time.monotonic()
                for index, graph in enumerate(graphs):
                    client.upload_graph(f"g{index}", graph)
                    for query in queries:
                        response = client.solve_raw(f"g{index}", query,
                                                    tier="unlimited")
                        pass_sizes.append(len(response["report"]["clique"]))
                samples[label].append(time.monotonic() - started)
            finally:
                handle.stop()
            sizes[label] = pass_sizes
            if data_dir is not None:
                started = time.monotonic()
                recovered = FairCliqueService(
                    ServiceConfig(port=0, data_dir=data_dir)
                )
                recovery_samples.append(time.monotonic() - started)
                count = recovered.recovery["graphs_recovered"]
                if count != num_graphs:
                    raise AssertionError(
                        f"recovery lost graphs: {count} != {num_graphs}"
                    )
                recovered.durability.close()
                shutil.rmtree(data_dir, ignore_errors=True)
    if sizes["off"] != sizes["on"]:
        raise AssertionError(
            f"WAL-on pass parity violated: {sizes['on']} != {sizes['off']}"
        )
    return {
        "wal_off_s": median_of(samples["off"]),
        "wal_on_s": median_of(samples["on"]),
        "speedup": median_of(samples["off"]) / max(median_of(samples["on"]), 1e-9),
        "recovery_s": median_of(recovery_samples),
        "sizes": sizes["off"],
    }


def run_durability(mode: str, repeats: int) -> dict:
    grid = durability_smoke_grid() if mode == "smoke" else durability_full_grid()
    cells = []
    for name, num_graphs in grid:
        print(f"[bench] {name}: graphs={num_graphs}", flush=True)
        cell = {
            "name": name,
            "num_graphs": num_graphs,
            **bench_durability(num_graphs, repeats),
        }
        print(f"        wal-off {cell['wal_off_s']:.3f}s  "
              f"wal-on {cell['wal_on_s']:.3f}s  x{cell['speedup']:.2f}  "
              f"recovery {cell['recovery_s']:.3f}s", flush=True)
        cells.append(cell)
    medians = {
        "wal_off_s": median_of([cell["wal_off_s"] for cell in cells]),
        "wal_on_s": median_of([cell["wal_on_s"] for cell in cells]),
        "recovery_s": median_of([cell["recovery_s"] for cell in cells]),
        "durability_speedup": median_of([cell["speedup"] for cell in cells]),
    }
    return {
        "schema": DURABILITY_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def incremental_full_grid():
    """(name, graph, k, delta, batch_ops) cells for the incremental suite.

    Multi-component graphs with a reduction-heavy cold solve — exactly the
    regime mutations hit in production, and exactly where a warm refresh
    (patched kernel, untouched components spliced back in, previous optimum
    as the opening incumbent) should beat paying the cold pipeline again.
    ``batch_ops`` keeps the deltas *small*: a handful of ops per batch, the
    shape of a write-traffic tick, not a bulk reload.
    """
    empty = erdos_renyi_graph(0, 0.0)
    return [
        ("blobs-8x80", quasi_clique_blobs(empty, num_blobs=8, blob_size=80,
                                          edge_probability=0.45, seed=5),
         2, 1, 4),
        ("blobs-10x100", quasi_clique_blobs(empty, num_blobs=10, blob_size=100,
                                            edge_probability=0.40, seed=7),
         2, 1, 4),
        ("blobs-6x150", quasi_clique_blobs(empty, num_blobs=6, blob_size=150,
                                           edge_probability=0.35, seed=11),
         2, 1, 6),
        ("communities-20x100", community_graph(20, 100, intra_probability=0.35,
                                               inter_edges=0, seed=8), 2, 1, 4),
    ]


def incremental_smoke_grid():
    """A seconds-sized small-delta grid for the CI incremental perf gate."""
    empty = erdos_renyi_graph(0, 0.0)
    return [
        ("blobs-4x60", quasi_clique_blobs(empty, num_blobs=4, blob_size=60,
                                          edge_probability=0.5, seed=3),
         2, 1, 4),
        ("blobs-6x80", quasi_clique_blobs(empty, num_blobs=6, blob_size=80,
                                          edge_probability=0.45, seed=5),
         2, 1, 4),
    ]


def _kernel_fingerprint(kernel):
    """Every observable field of a compiled kernel, as plain comparables."""
    return (
        kernel.n, kernel.num_edges, tuple(kernel.vertex_of),
        tuple(kernel.indptr), tuple(kernel.indices), tuple(kernel.degrees),
        kernel.attribute_values, tuple(kernel.attr_codes),
        tuple(kernel.adj_bits[i] for i in range(kernel.n)),
        tuple(kernel.attr_masks[c]
              for c in range(len(kernel.attribute_values))),
        tuple(kernel.degeneracy_order()),
    )


def _mutation_batch(graph, rng, batch_ops):
    """One small batch confined to a single component — a localized write.

    Edge churn plus a newcomer vertex, all inside one randomly chosen
    component: the production shape the incremental path is built for
    (most components never see the write and keep their survivors).
    """
    components = sorted(
        (sorted(component, key=str)
         for component in connected_components(graph)),
        key=lambda members: (-len(members), str(members[0])),
    )
    target = components[rng.randrange(min(4, len(components)))]
    member_set = set(target)
    with graph.mutate() as g:
        edges = sorted(
            (e for e in g.edges() if e[0] in member_set and e[1] in member_set),
            key=lambda e: (str(e[0]), str(e[1])),
        )
        for edge in rng.sample(edges, min(len(edges), max(1, batch_ops - 2))):
            g.remove_edge(*edge)
        newcomer = f"inc{rng.randrange(1_000_000)}"
        g.add_vertex(newcomer, "a")
        for other in rng.sample(target, min(len(target), 2)):
            g.add_edge(newcomer, other)


def bench_incremental(graph, k, delta, batch_ops, repeats):
    """Patch-vs-recompile and warm-vs-cold re-solve medians for one cell.

    Each repeat works on a fresh copy of the cell graph: solve once to warm
    the session (untimed — both paths start from a solved steady state),
    apply one small mutation batch, then time the two halves:

    * ``patch_s`` vs ``recompile_s`` — ``patch_kernel(old, graph, delta)``
      against ``compile_kernel`` of the mutated graph, the patched kernel
      asserted field-identical to the recompile;
    * ``warm_s`` vs ``cold_s`` — ``session.refresh()`` + re-solve on the
      live session against constructing a fresh session and solving cold,
      both asserted to land on the same optimal size.
    """
    query = FairCliqueQuery(model="relative", k=k, delta=delta)
    samples = {"patch": [], "recompile": [], "warm": [], "cold": []}
    sizes = {}
    for repeat in range(repeats):
        rng = random.Random(1000 + repeat)
        working = graph.subgraph(list(graph.vertices()))
        session = FairCliqueSession(working)
        try:
            session.solve(query)  # steady state: kernel, reductions, incumbent
            old_kernel = compile_kernel(working)
            base = working.version
            _mutation_batch(working, rng, batch_ops)
            delta_record = working.delta_since(base)

            started = time.monotonic()
            patched = patch_kernel(old_kernel, working, delta_record)
            samples["patch"].append(time.monotonic() - started)
            started = time.monotonic()
            recompiled = compile_kernel(working)
            samples["recompile"].append(time.monotonic() - started)
            if _kernel_fingerprint(patched) != _kernel_fingerprint(recompiled):
                raise AssertionError("patched kernel diverged from recompile")

            started = time.monotonic()
            session.refresh()
            warm = session.solve(query)
            samples["warm"].append(time.monotonic() - started)
            started = time.monotonic()
            with FairCliqueSession(working, warm_start=False) as cold_session:
                cold = cold_session.solve(query)
            samples["cold"].append(time.monotonic() - started)
            if warm.size != cold.size or warm.optimal != cold.optimal:
                raise AssertionError(
                    f"warm/cold re-solve parity violated: "
                    f"{warm.size}/{warm.optimal} != {cold.size}/{cold.optimal}"
                )
            sizes = {"before_ops": base, "clique_size": warm.size}
            refresh_info = session.cache_info()
        finally:
            session.close()
    return {
        "patch_s": median_of(samples["patch"]),
        "recompile_s": median_of(samples["recompile"]),
        "patch_speedup": (median_of(samples["recompile"])
                          / max(median_of(samples["patch"]), 1e-9)),
        "warm_s": median_of(samples["warm"]),
        "cold_s": median_of(samples["cold"]),
        "speedup": (median_of(samples["cold"])
                    / max(median_of(samples["warm"]), 1e-9)),
        "clique_size": sizes["clique_size"],
        "kernel_patches": refresh_info["kernel_patches"],
        "reductions_reused": refresh_info["reductions_reused"],
        "warm_start_hits": refresh_info["warm_start_hits"],
    }


def run_incremental(mode: str, repeats: int) -> dict:
    grid = incremental_smoke_grid() if mode == "smoke" else incremental_full_grid()
    cells = []
    for name, graph, k, delta, batch_ops in grid:
        print(f"[bench] {name}: n={graph.num_vertices} m={graph.num_edges} "
              f"k={k} delta={delta} batch_ops={batch_ops}", flush=True)
        cell = {
            "name": name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "k": k,
            "delta": delta,
            "batch_ops": batch_ops,
            **bench_incremental(graph, k, delta, batch_ops, repeats),
        }
        print(f"        patch {cell['patch_s'] * 1e3:.1f}ms vs recompile "
              f"{cell['recompile_s'] * 1e3:.1f}ms x{cell['patch_speedup']:.1f}  "
              f"warm {cell['warm_s']:.3f}s vs cold {cell['cold_s']:.3f}s "
              f"x{cell['speedup']:.2f}", flush=True)
        cells.append(cell)
    medians = {
        "patch_s": median_of([cell["patch_s"] for cell in cells]),
        "recompile_s": median_of([cell["recompile_s"] for cell in cells]),
        "patch_speedup": median_of([cell["patch_speedup"] for cell in cells]),
        "warm_s": median_of([cell["warm_s"] for cell in cells]),
        "cold_s": median_of([cell["cold_s"] for cell in cells]),
        "incremental_speedup": median_of([cell["speedup"] for cell in cells]),
    }
    return {
        "schema": INCREMENTAL_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def median_of(runs):
    return statistics.median(runs)


def bench_bounds(graph, k, delta, repeats):
    """Median wall-clock of one ``ubAD`` stack evaluation on the whole graph."""
    stack = get_stack("ubAD")
    vertices = sorted(graph.vertices(), key=str)
    if not vertices:
        return {"kernel_s": 0.0, "dict_s": 0.0, "speedup": 1.0}
    kernel = graph.compile()
    view = SubgraphView(kernel, graph, vertices)
    full_mask = view.full_mask

    samples_kernel = []
    samples_dict = []
    values = {}
    for _ in range(repeats):
        started = time.monotonic()
        values["kernel"] = stack_evaluate(view, stack, 0, full_mask, k, delta)
        samples_kernel.append(time.monotonic() - started)
        started = time.monotonic()
        values["dict"] = stack.evaluate(make_context(graph, [], vertices, k, delta))
        samples_dict.append(time.monotonic() - started)
    if values["kernel"] != values["dict"]:
        raise AssertionError(f"kernel/dict bound parity violated: {values}")
    return {
        "kernel_s": median_of(samples_kernel),
        "dict_s": median_of(samples_dict),
        "speedup": median_of(samples_dict) / max(median_of(samples_kernel), 1e-9),
        "value": values["kernel"],
    }


def bench_parallel(graph, model_name, k, delta, repeats, workers):
    """Median search seconds serial vs parallel + exact result parity.

    The comparison is search-phase wall-clock: reduction and heuristic run
    once in the coordinator on both paths and are charged identically.
    Parity is exact on the *result* — identical optimal size and a clique
    verified by the cell's fairness model — rather than on the specific
    clique, which is legitimately worker-order dependent among equals.
    """
    model = make_model(model_name, k, delta, graph)
    serial_samples = []
    for _ in range(repeats):
        serial = MaxRFC(build_search_config()).solve_model(graph, model)
        serial_samples.append(serial.stats.search_seconds)
    parallel_samples = []
    for _ in range(repeats):
        parallel = ParallelMaxRFC(build_search_config(), workers).solve_model(
            graph, model
        )
        parallel_samples.append(parallel.stats.search_seconds)
    if not (serial.optimal and parallel.optimal):
        raise AssertionError("parallel bench cell hit a budget: sizes not comparable")
    if serial.size != parallel.size:
        raise AssertionError(
            f"serial/parallel parity violated: {serial.size} != {parallel.size}"
        )
    if parallel.size and not model.verify(graph, parallel.clique):
        raise AssertionError("parallel search returned an invalid fair clique")
    telemetry = parallel.stats.extra.get("parallel", {})
    return {
        "serial_s": median_of(serial_samples),
        "parallel_s": median_of(parallel_samples),
        "speedup": median_of(serial_samples) / max(median_of(parallel_samples), 1e-9),
        "clique_size": parallel.size,
        "shards": telemetry.get("shards", 0),
        "components_searched": telemetry.get("components_searched", 0),
        "components_split": telemetry.get("components_split", 0),
    }


def bench_session(graph, ks, deltas, repeats):
    """Cold-vs-warm wall-clock of a repeated k × delta sweep on one session.

    Each repeat opens a fresh session, runs the sweep twice, and times both
    passes: the *cold* pass pays every reduction (and reduced-kernel
    compile), the *warm* pass reuses the session's artifacts — same queries,
    same answers, asserted per repeat.  The cache counters come from the
    session itself, so a broken cache (zero hits) fails the run rather than
    quietly timing two cold passes.
    """
    queries = query_grid(ks=ks, deltas=deltas)
    cold_samples = []
    warm_samples = []
    info = {}
    cold_sizes = warm_sizes = None
    for _ in range(repeats):
        with FairCliqueSession(graph) as session:
            started = time.monotonic()
            cold_sizes = [session.solve(query).size for query in queries]
            cold_samples.append(time.monotonic() - started)
            started = time.monotonic()
            warm_sizes = [session.solve(query).size for query in queries]
            warm_samples.append(time.monotonic() - started)
            info = session.cache_info()
        if cold_sizes != warm_sizes:
            raise AssertionError(
                f"cold/warm sweep parity violated: {cold_sizes} != {warm_sizes}"
            )
    if info["reduction_hits"] == 0:
        raise AssertionError("warm sweep produced no reduction cache hits")
    return {
        "num_queries": len(queries),
        "cold_s": median_of(cold_samples),
        "warm_s": median_of(warm_samples),
        "speedup": median_of(cold_samples) / max(median_of(warm_samples), 1e-9),
        "reduction_hits": info["reduction_hits"],
        "reduction_misses": info["reduction_misses"],
        "reductions_cached": info["reductions"],
        "sizes": cold_sizes,
    }


def _latency_quantile(latencies, fraction):
    """Client-side quantile (nearest-rank) of a pass's request latencies."""
    ordered = sorted(latencies)
    rank = max(1, int(fraction * len(ordered) + 0.999999))
    return ordered[rank - 1]


def _drive_service_pass(address, queries, client_threads):
    """Issue every query once from ``client_threads`` concurrent clients.

    Returns ``(wall_seconds, sizes, cached_hits, latencies)`` — sizes in
    query order for the parity assertion, per-request wall latencies for
    the percentile columns.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import ServiceClient

    def issue(indexed_query):
        index, query = indexed_query
        client = ServiceClient(address)
        started = time.monotonic()
        envelope = client.solve_raw("bench", query, tier="unlimited")
        elapsed = time.monotonic() - started
        return index, len(envelope["report"]["clique"]), envelope["cached"], elapsed

    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=client_threads) as pool:
        outcomes = list(pool.map(issue, enumerate(queries)))
    wall = time.monotonic() - started
    outcomes.sort()
    sizes = [size for _, size, _, _ in outcomes]
    cached_hits = sum(1 for _, _, cached, _ in outcomes if cached)
    latencies = [latency for _, _, _, latency in outcomes]
    return wall, sizes, cached_hits, latencies


def bench_service(graph, models, ks, deltas, repeats, client_threads):
    """Cold / warm / result-cached throughput of the HTTP service tier.

    Each repeat boots a fresh in-process server and drives the sweep three
    times: *cold* (sessions and result cache both empty), *warm* (the
    result cache is cleared, so sessions answer with warm artifacts), and
    *cached* (nothing cleared, so the result cache short-circuits).  Every
    pass must return identical sizes — and they must match an in-process
    session solving the same sweep — so the bench doubles as an e2e parity
    check.  The cached pass asserts actual cache hits: a broken cache fails
    the run instead of timing three warm passes.
    """
    from repro.service import FairCliqueService, ServerHandle, ServiceConfig

    queries = query_grid(models=models, ks=ks, deltas=deltas)
    with FairCliqueSession(graph) as session:
        expected_sizes = [session.solve(query).size for query in queries]

    samples = {"cold": [], "warm": [], "cached": []}
    latencies = {"cold": [], "warm": [], "cached": []}
    cached_hits = 0
    for _ in range(repeats):
        service = FairCliqueService(ServiceConfig(
            port=0, result_cache_capacity=4096, queue_depth=4 * len(queries),
        ))
        service.add_graph("bench", graph)
        handle = ServerHandle.start(service)
        try:
            address = handle.address
            for pass_name in ("cold", "warm", "cached"):
                if pass_name == "warm":
                    service.result_cache.clear()
                wall, sizes, hits, pass_latencies = _drive_service_pass(
                    address, queries, client_threads
                )
                if sizes != expected_sizes:
                    raise AssertionError(
                        f"service {pass_name} pass parity violated: "
                        f"{sizes} != {expected_sizes}"
                    )
                if pass_name in ("cold", "warm") and hits:
                    raise AssertionError(
                        f"service {pass_name} pass unexpectedly hit the "
                        f"result cache {hits} times"
                    )
                samples[pass_name].append(wall)
                latencies[pass_name].extend(pass_latencies)
                if pass_name == "cached":
                    cached_hits += hits
        finally:
            handle.stop()
    if cached_hits == 0:
        raise AssertionError("cached pass produced no result-cache hits")

    def pass_stats(name):
        wall = median_of(samples[name])
        return {
            f"{name}_s": wall,
            f"{name}_qps": len(queries) / max(wall, 1e-9),
            f"{name}_p50_s": _latency_quantile(latencies[name], 0.50),
            f"{name}_p99_s": _latency_quantile(latencies[name], 0.99),
        }

    return {
        "num_queries": len(queries),
        **pass_stats("cold"),
        **pass_stats("warm"),
        **pass_stats("cached"),
        "speedup": median_of(samples["cold"]) / max(median_of(samples["cached"]), 1e-9),
        "warm_speedup": median_of(samples["cold"]) / max(median_of(samples["warm"]), 1e-9),
        "result_cache_hits": cached_hits,
        "sizes": expected_sizes,
    }


def run_service(mode: str, repeats: int, client_threads: int) -> dict:
    grid = service_smoke_grid() if mode == "smoke" else service_full_grid()
    cells = []
    for name, graph, models, ks, deltas in grid:
        print(f"[bench] {name}: n={graph.num_vertices} m={graph.num_edges} "
              f"models={models} ks={ks} deltas={deltas} "
              f"clients={client_threads}", flush=True)
        cell = {
            "name": name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "models": list(models),
            "ks": list(ks),
            "deltas": list(deltas),
            **bench_service(graph, models, ks, deltas, repeats, client_threads),
        }
        print(f"        cold {cell['cold_qps']:.1f} q/s  "
              f"warm {cell['warm_qps']:.1f} q/s  "
              f"cached {cell['cached_qps']:.1f} q/s  x{cell['speedup']:.2f}  "
              f"hits={cell['result_cache_hits']}", flush=True)
        cells.append(cell)
    medians = {
        "cold_qps": median_of([cell["cold_qps"] for cell in cells]),
        "warm_qps": median_of([cell["warm_qps"] for cell in cells]),
        "cached_qps": median_of([cell["cached_qps"] for cell in cells]),
        "warm_speedup": median_of([cell["warm_speedup"] for cell in cells]),
        "service_speedup": median_of([cell["speedup"] for cell in cells]),
    }
    return {
        "schema": SERVICE_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "client_threads": client_threads,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def run_session(mode: str, repeats: int) -> dict:
    grid = session_smoke_grid() if mode == "smoke" else session_full_grid()
    cells = []
    for name, graph, ks, deltas in grid:
        print(f"[bench] {name}: n={graph.num_vertices} m={graph.num_edges} "
              f"ks={ks} deltas={deltas}", flush=True)
        cell = {
            "name": name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "ks": list(ks),
            "deltas": list(deltas),
            **bench_session(graph, ks, deltas, repeats),
        }
        print(f"        cold {cell['cold_s']:.3f}s  warm {cell['warm_s']:.3f}s  "
              f"x{cell['speedup']:.2f}  hits={cell['reduction_hits']}",
              flush=True)
        cells.append(cell)
    medians = {
        "cold_s": median_of([cell["cold_s"] for cell in cells]),
        "warm_s": median_of([cell["warm_s"] for cell in cells]),
        "session_speedup": median_of([cell["speedup"] for cell in cells]),
    }
    return {
        "schema": SESSION_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def run_parallel(mode: str, repeats: int, workers: int) -> dict:
    grid = parallel_smoke_grid() if mode == "smoke" else parallel_full_grid()
    cells = []
    for name, graph, model_name, k, delta in grid:
        print(f"[bench] {name}: n={graph.num_vertices} m={graph.num_edges} "
              f"model={model_name} k={k} delta={delta} workers={workers} "
              f"cpus={os.cpu_count()}", flush=True)
        cell = {
            "name": name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "model": model_name,
            "k": k,
            "delta": delta,
            **bench_parallel(graph, model_name, k, delta, repeats, workers),
        }
        print(f"        serial {cell['serial_s']:.3f}s  "
              f"parallel {cell['parallel_s']:.3f}s  x{cell['speedup']:.2f}  "
              f"shards={cell['shards']}",
              flush=True)
        cells.append(cell)
    medians = {
        "serial_s": median_of([cell["serial_s"] for cell in cells]),
        "parallel_s": median_of([cell["parallel_s"] for cell in cells]),
        "parallel_speedup": median_of([cell["speedup"] for cell in cells]),
    }
    return {
        "schema": PARALLEL_SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def run(mode: str, repeats: int) -> dict:
    grid = smoke_grid() if mode == "smoke" else full_grid()
    cells = []
    for name, graph, k, delta in grid:
        print(f"[bench] {name}: n={graph.num_vertices} m={graph.num_edges} "
              f"k={k} delta={delta}", flush=True)
        cell = {
            "name": name,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "k": k,
            "delta": delta,
            "bounds": bench_bounds(graph, k, delta, repeats),
        }
        print(f"        bounds x{cell['bounds']['speedup']:.2f}", flush=True)
        cells.append(cell)
    medians = {
        f"bounds_{field}": median_of([cell["bounds"][field] for cell in cells])
        for field in ("kernel_s", "dict_s", "speedup")
    }
    return {
        "schema": SCHEMA,
        "mode": mode,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "medians": medians,
    }


def check_against_baseline(report: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema") != report["schema"]:
        print(f"[check] FAIL: baseline schema {baseline.get('schema')!r} does not "
              f"match report schema {report['schema']!r}", file=sys.stderr)
        return 1
    key = CHECK_KEYS[report["schema"]]
    reference = baseline["medians"][key]
    measured = report["medians"][key]
    if report["schema"] == PARALLEL_SCHEMA:
        # The parallel speedup is bounded above by the machine's core count;
        # on a single-core runner the ratio is pure pool overhead and a
        # "< 1x" reading says nothing about the executor.  Every cell has
        # already asserted exact size parity, clique validity, and pool
        # health during the run, so on such machines the gate reports those
        # and skips the meaningless speedup floor.
        cpu_count = os.cpu_count()
        print(f"[check] cpu_count={cpu_count} (speedup is capped by cores)")
        if cpu_count is not None and cpu_count < 2:
            print(f"[check] single-core machine: parity and executor health "
                  f"verified across {len(report['cells'])} cells "
                  f"(measured x{measured:.2f} recorded, speedup floor skipped)")
            print("[check] OK")
            return 0
    floor = reference / tolerance
    print(f"[check] median {key}: measured x{measured:.2f}, "
          f"baseline x{reference:.2f}, floor x{floor:.2f}")
    if measured < floor:
        print(f"[check] FAIL: {key} has regressed beyond the tolerance",
              file=sys.stderr)
        return 1
    if report["schema"] == INCREMENTAL_SCHEMA and measured < 1.0:
        # Absolute floor on top of the baseline-relative gate: a warm
        # mutate→re-solve that loses to a cold recompile+solve means the
        # incremental subsystem has stopped paying for itself.
        print("[check] FAIL: warm mutate→re-solve is slower than the cold "
              "path (floor x1.00)", file=sys.stderr)
        return 1
    print("[check] OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite",
                        choices=("kernel", "parallel", "session", "service",
                                 "chaos", "durability", "incremental"),
                        default="kernel",
                        help="kernel-vs-reference ubAD bounds, "
                             "serial-vs-parallel search, cold-vs-warm "
                             "session caching, the HTTP service tier "
                             "(cold/warm/result-cached), the fault-hook "
                             "overhead check, the WAL-on-vs-off + "
                             "warm-restart recovery suite, or the mutation "
                             "suite (patch-vs-recompile and warm "
                             "mutate→re-solve vs cold)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the small CI grid instead of the full one")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (median is reported)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the parallel suite (default 4)")
    parser.add_argument("--client-threads", type=int, default=4,
                        help="concurrent HTTP clients for the service suite "
                             "(default 4)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (defaults under benchmarks/results/)")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to gate the median speedup against")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed regression factor for --check (default 2x)")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    if args.suite == "parallel":
        if args.workers < 2:
            parser.error("--suite parallel needs --workers >= 2 "
                         "(one worker falls back to the serial search)")
        report = run_parallel(mode, max(1, args.repeats), args.workers)
        default_name = ("BENCH_parallel_smoke.json" if args.smoke
                        else "BENCH_parallel.json")
    elif args.suite == "session":
        report = run_session(mode, max(1, args.repeats))
        default_name = ("BENCH_session_smoke.json" if args.smoke
                        else "BENCH_session.json")
    elif args.suite == "service":
        if args.client_threads < 1:
            parser.error("--suite service needs --client-threads >= 1")
        report = run_service(mode, max(1, args.repeats), args.client_threads)
        default_name = ("BENCH_service_smoke.json" if args.smoke
                        else "BENCH_service.json")
    elif args.suite == "chaos":
        report = run_chaos(mode, max(1, args.repeats))
        default_name = ("BENCH_chaos_smoke.json" if args.smoke
                        else "BENCH_chaos.json")
    elif args.suite == "durability":
        report = run_durability(mode, max(1, args.repeats))
        default_name = ("BENCH_durability_smoke.json" if args.smoke
                        else "BENCH_durability.json")
    elif args.suite == "incremental":
        report = run_incremental(mode, max(1, args.repeats))
        default_name = ("BENCH_incremental_smoke.json" if args.smoke
                        else "BENCH_incremental.json")
    else:
        report = run(mode, max(1, args.repeats))
        default_name = ("BENCH_kernel_smoke.json" if args.smoke
                        else "BENCH_kernel.json")
    out = args.out
    if out is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / default_name
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    key = CHECK_KEYS[report["schema"]]
    print(f"[bench] wrote {out}")
    print(f"[bench] median {key}: x{report['medians'][key]:.2f}")

    if args.check is not None:
        return check_against_baseline(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
