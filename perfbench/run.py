"""Layered benchmark of exact maximum fair-clique solves.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-dense --seed 1 --seconds 30 --trace 0

The untraced run (``--trace 0``) measures the end-to-end metrics.  The
traced run (``--trace 1``) measures the same workload untraced and then
traced for half the seconds each, on the same inputs: it reports the
per-layer metrics of the traced half, the tracing overhead, and fails if
the two halves disagree on any answer size.  Every run prints its metrics
by name with unit and sample count, an environment stamp, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory; spans and
service data go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-dense", "warm-sweep", "service-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    from repro.kernel.backend import available_backends, resolve_backend

    return {
        "cpu_count": os.cpu_count(),
        "kernel_backend": resolve_backend(),
        "available_backends": list(available_backends()),
        "python": platform.python_version(),
        "seed": seed,
    }


def quantile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def best_of_repeats(outcome) -> dict:
    """Latency and throughput from each request's fastest repeat.

    Every workload repeats a fixed cycle of requests in one closed loop, so
    each slot (a client's request at one cycle position) is measured once
    per pass over the cycle.  A slot's fastest repeat is its time least
    disturbed by whatever else shares the host.  ``latency_best_p50_s`` is
    the median over solve slots of that time; ``throughput_best_rps`` is
    the requests per second of one pass made of every slot's fastest repeat.
    """
    best = {slot: min(times) for slot, times in outcome.repeats.items()}
    solves = [value for slot, value in best.items() if slot not in outcome.write_slots]
    return {
        "latency_best_p50_s": (statistics.median(solves), "s", len(solves)),
        "throughput_best_rps": (len(best) / sum(best.values()), "1/s", len(best)),
    }


def best_setup(setup_samples: dict) -> float:
    """Median over set-up units of each unit's fastest set-up."""
    return statistics.median(min(samples) for samples in setup_samples.values())


def end_to_end(outcome, setup_samples) -> dict:
    """Every end-to-end metric: ``name -> (value, unit, samples)``."""
    latencies = list(outcome.latency.values())
    completed = len(latencies) + len(outcome.writes)
    metrics = {
        **best_of_repeats(outcome),
        "latency_p50_s": (statistics.median(latencies or [0.0]), "s", len(latencies)),
        "throughput_rps": (completed / outcome.wall, "1/s", completed),
        "setup_s": (best_setup(setup_samples), "s",
                    sum(len(samples) for samples in setup_samples.values())),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_ratio": (outcome.failed / outcome.attempted, "ratio", outcome.attempted),
    }
    if len(latencies) >= 100:
        metrics["latency_p90_s"] = (quantile(latencies, 0.9), "s", len(latencies))
    if outcome.writes:
        metrics["write_p50_s"] = (statistics.median(outcome.writes), "s", len(outcome.writes))
    return metrics


#: The end-to-end metrics the final line carries (never 0 on any workload).
REPORTED = ("latency_best_p50_s", "throughput_best_rps", "setup_s", "peak_rss_mb")


def run_untraced(workload, seconds: float):
    # Set up before the measured run and again after it, so that a single
    # slow stretch of the shared host does not decide the run's setup_s.
    for _ in range(workload.setup_repeats - 1):
        workload.start()
        workload.stop()
    workload.start()
    try:
        outcome = workload.run(seconds)
    finally:
        workload.stop()
    for _ in range(workload.setup_repeats):
        workload.start()
        workload.stop()
    return [outcome], end_to_end(outcome, workload.setup_samples), []


def run_traced(workload, name: str, seconds: float, seed: int):
    import layers
    from tracing import Tracer

    half = seconds / 2
    workload.start()
    try:
        plain = workload.run(half)
    finally:
        workload.stop()
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.start()
        try:
            traced = workload.run(half, tracer)
        finally:
            workload.stop()
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")

    problems = []
    common = sorted(set(plain.sizes) & set(traced.sizes))
    for key in common:
        if plain.sizes[key] != traced.sizes[key]:
            problems.append(f"request {key}: untraced size {plain.sizes[key]}, "
                            f"traced size {traced.sizes[key]}")
    timed = [key for key in common if key in plain.latency and key in traced.latency]
    overhead = 0.0
    if timed:
        overhead = (statistics.median(traced.latency[key] for key in timed)
                    / statistics.median(plain.latency[key] for key in timed))
    metrics, trace_problems = layers.per_layer(
        name, tracer, traced, overhead, statistics.median(plain.writes or [0.0])
    )
    problems += trace_problems
    requests = int(metrics["trace.requests"][0])
    metrics = {key: (value, unit, requests) for key, (value, unit) in metrics.items()}
    return [plain, traced], metrics, problems


def stop_helpers() -> None:
    """Reap every helper process the run started (pool workers, shm tracker)."""
    for child in multiprocessing.active_children():
        child.join(30)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT_DIR / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the repro package from {source}: {error}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"perfbench: repro was imported from {repro.__file__}, not from {source}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT_DIR)
    try:
        workload.prepare(args.seed)
        if args.trace:
            outcomes, metrics, problems = run_traced(
                workload, args.workload, args.seconds, args.seed)
        else:
            outcomes, metrics, problems = run_untraced(workload, args.seconds)
    finally:
        stop_helpers()
    problems = [problem for outcome in outcomes for problem in outcome.problems] + problems
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)

    stamp = {**environment(args.seed), "workload": args.workload, "trace": args.trace,
             "attempted": attempted, "failed": failed,
             "requests": len(outcomes[-1].latency) + len(outcomes[-1].writes)}
    print("perfbench " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:<42} {value:>14.6g} {unit:<10} n={samples}")
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)

    reported = metrics if args.trace else {key: metrics[key] for key in REPORTED}
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
