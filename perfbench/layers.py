"""Which entry point each layer's span wraps, and the per-layer metrics.

Layer names follow the package's modules.  A span wraps the public entry
point of its layer at the site the callers resolve it from: module-level
functions are patched on the module that callers import them from at call
time, methods on the class that defines them, and the reduction stages in
``STAGE_REGISTRY``, which the pipeline reads on every run.
"""

from __future__ import annotations

import contextvars
import json

from tracing import ROOT, Tracer, self_times

STAGES = ("EnColorfulCore", "ColorfulSup", "EnColorfulSup")

#: Per-request self time of each span, reported as ``<metric>``.
TIMED = {
    "graph.build_s": "graph.build",
    "kernel.compile_s": "kernel.compile",
    "kernel.materialize_s": "kernel.materialize",
    "kernel.patch_s": "kernel.patch",
    **{f"reduction.{stage}_s": f"reduction.{stage}" for stage in STAGES},
    "heuristic.seed_s": "heuristic.seed",
    "search.self_s": "search",
    "parallel.self_s": "parallel",
    "api.session_solve.self_s": "api.session_solve",
    "api.report_encode_s": "api.report_encode",
    "incremental.refresh.self_s": "incremental.refresh",
    "service.admission_wait_s": "service.admission_wait",
    "service.server_s": "service.server",
    "durability.wal_append_s": "durability.wal_append",
}

#: Spans each workload must fire at least once in its traced run; a wrapper
#: patched at the wrong site would otherwise report zeros silently.
EXPECTED = {
    "cold-dense": (
        "graph.build", "kernel.compile", "kernel.materialize",
        *(f"reduction.{stage}" for stage in STAGES),
        "heuristic.seed", "search", "api.session_solve",
    ),
    "warm-sweep": ("api.session_solve", "search", "heuristic.seed", "parallel"),
    "service-mixed": (
        "service.server", "service.admission_wait", "api.session_solve",
        "api.report_encode", "incremental.refresh", "kernel.patch",
        "kernel.compile", "durability.wal_append", "search", "heuristic.seed",
    ),
}


def _graph_of(request) -> str | None:
    """The graph id a service request is about (its owning client's key)."""
    segments = request.segments
    if len(segments) >= 2 and segments[0] == "graphs":
        return segments[1]
    if segments == ("solve",):
        try:
            return json.loads(request.body).get("graph")
        except (ValueError, AttributeError):
            return None
    return None


def _record_edges(span, args, result) -> None:
    span.data["edges_before"] = result.edges_before
    span.data["edges_after"] = result.edges_after


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point; ``tracer.uninstall()`` undoes it."""
    import repro.incremental.patch as patch_module
    import repro.kernel.compile as compile_module
    import repro.service.app as app_module
    from repro.api.report import SolveReport
    from repro.api.session import FairCliqueSession
    from repro.durability.wal import WriteAheadLog
    from repro.heuristic.heur_rfc import HeurRFC
    from repro.parallel.executor import ParallelMaxRFC
    from repro.reduction.pipeline import STAGE_REGISTRY
    from repro.search.maxrfc import MaxRFC
    from repro.service.admission import AdmissionController
    from repro.service.executor import ThreadPoolBackend

    tracer.wrap(app_module, "graph_from_wire", "graph.build")
    tracer.wrap(compile_module, "compile_kernel", "kernel.compile")
    tracer.wrap(compile_module.GraphKernel, "materialize", "kernel.materialize")
    tracer.wrap(patch_module, "patch_kernel", "kernel.patch")
    for stage in STAGES:
        tracer.wrap(STAGE_REGISTRY, stage, f"reduction.{stage}", after=_record_edges)
    tracer.wrap(HeurRFC, "run", "heuristic.seed")
    tracer.wrap(MaxRFC, "solve_model", "search")
    # ParallelMaxRFC inherits solve_model; its coordinator work (shard plan,
    # kernel ship, shard wait, merge) is the component loop it overrides.
    tracer.wrap(ParallelMaxRFC, "_search_components", "parallel")
    tracer.wrap(FairCliqueSession, "solve", "api.session_solve")
    tracer.wrap(SolveReport, "to_wire", "api.report_encode")
    tracer.wrap(FairCliqueSession, "refresh", "incremental.refresh")
    tracer.wrap(AdmissionController, "__aenter__", "service.admission_wait")
    tracer.wrap(app_module.FairCliqueService, "handle_connection", "service.server")
    tracer.wrap(WriteAheadLog, "append", "durability.wal_append")

    # Solves run on the service's executor threads: carry the submitting
    # task's context so their spans nest under the server span.
    def carry_context(original):
        def submit(self, fn, /, *args, **kwargs):
            return original(self, contextvars.copy_context().run, fn, *args, **kwargs)
        return submit

    tracer.patch(ThreadPoolBackend, "submit", carry_context)

    # Join each server span to the client request that caused it, found
    # through the graph id: every client owns exactly one graph.
    def adopt_request(original):
        async def read_request(reader):
            request = await original(reader)
            if request is not None:
                tracer.adopt(_graph_of(request))
            return request
        return read_request

    tracer.patch(app_module, "read_request", adopt_request)


def per_layer(workload: str, tracer: Tracer, traced, overhead: float,
              write_p50: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced phase, plus the self-check's complaints."""
    spans = tracer.request_spans()
    requests = max(1, sum(1 for span in spans if span.name == ROOT))
    fired: dict[str, int] = {}
    for span in spans:
        fired[span.name] = fired.get(span.name, 0) + 1
    missing = [name for name in EXPECTED[workload] if not fired.get(name)]
    problems = [f"trace self-check: span {name!r} never fired" for name in missing]

    selfs = self_times(spans)
    counts = traced.counts

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    wire = 0.0
    if "server_seconds" in counts:
        client_seconds = sum(traced.latency.values()) + sum(traced.writes)
        wire = max(0.0, client_seconds - counts["server_seconds"])
    metrics = {name: (selfs.get(span, 0.0) / requests, "s") for name, span in TIMED.items()}
    metrics.update({
        "kernel.compiles": (fired.get("kernel.compile", 0) / requests, "count/req"),
        "kernel.patches": (fired.get("kernel.patch", 0) / requests, "count/req"),
    })
    for stage in STAGES:
        before = after = 0
        for span in spans:
            if span.name == f"reduction.{stage}":
                before += span.data["edges_before"]
                after += span.data["edges_after"]
        metrics[f"reduction.{stage}.edges_removed_ratio"] = (ratio(before - after, before), "ratio")
    metrics.update({
        "reduction.cache_hit_ratio": (
            ratio(counts["reduction_hits"], counts["reduction_lookups"]), "ratio"),
        "heuristic.seed_gap": (ratio(counts["seed_gap"], counts["seeded"]), "vertices"),
        "search.branches": (counts["branches"] / requests, "count/req"),
        "search.bound_evaluations": (counts["bound_evaluations"] / requests, "count/req"),
        "search.bound_prune_ratio": (
            ratio(counts["pruned_by_bound"], counts["bound_evaluations"]), "ratio"),
        "parallel.shards": (counts["shards"] / requests, "count/req"),
        "parallel.shm_bytes": (counts["shm_bytes"] / requests, "B/req"),
        "parallel.retries": (counts["retries"] / requests, "count/req"),
        "incremental.reductions_repeeled": (
            counts["reductions_repeeled"] / requests, "count/req"),
        "incremental.reductions_reused": (counts["reductions_reused"] / requests, "count/req"),
        "incremental.warm_start_hits": (counts["warm_start_hits"] / requests, "count/req"),
        "service.wire_s": (wire / requests, "s"),
        "service.write_p50_s": (write_p50, "s"),
        "service.rejected": (counts["rejected"] / requests, "count/req"),
        "service.result_cache_hit_ratio": (
            ratio(counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]), "ratio"),
        "service.results_promoted": (counts["promoted"] / requests, "count/req"),
        "durability.fsyncs": (counts["fsyncs"] / requests, "count/req"),
        "other.self_s": (max(0.0, selfs.get(ROOT, 0.0) - wire) / requests, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.requests": (float(requests), "count"),
        "reduction.self_share": (ratio(
            sum(selfs.get(f"reduction.{stage}", 0.0) for stage in STAGES),
            sum(span.end - span.start for span in spans if span.name == ROOT),
        ), "ratio"),
    })
    return metrics, problems
