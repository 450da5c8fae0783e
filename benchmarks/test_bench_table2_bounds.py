"""Benchmark: Table II — MaxRFC runtime under the six upper-bound stacks.

Runs the exact search with every bound configuration (``ubAD`` and its five
augmentations) over the per-dataset ``k`` sweep on two stand-ins, checks that
every configuration finds the same optimum, and writes the per-cell runtimes
(in microseconds, the paper's unit) to ``results/timed/table2_vary_*.txt``.
"""

from __future__ import annotations

from conftest import BENCH_SCALE, FAST_DATASETS, write_report

from repro.experiments.bounds_experiment import (
    all_sizes_agree,
    best_stack_per_dataset,
    format_bounds_report,
    run_bounds_experiment,
)


def test_bench_table2_bounds_vary_k(benchmark, results_dir):
    rows = benchmark.pedantic(
        run_bounds_experiment,
        kwargs={"datasets": FAST_DATASETS, "scale": BENCH_SCALE,
                "vary": "k", "time_limit": 120.0},
        rounds=1,
        iterations=1,
    )
    assert rows
    assert all_sizes_agree(rows)
    report = format_bounds_report(rows)
    report += "\n\nbest stack per dataset: " + str(best_stack_per_dataset(rows))
    write_report(results_dir, "table2_vary_k", report)


def test_bench_table2_bounds_vary_delta(benchmark, results_dir):
    rows = benchmark.pedantic(
        run_bounds_experiment,
        kwargs={"datasets": FAST_DATASETS, "scale": BENCH_SCALE,
                "vary": "delta", "time_limit": 120.0},
        rounds=1,
        iterations=1,
    )
    assert rows
    assert all_sizes_agree(rows)
    write_report(results_dir, "table2_vary_delta", format_bounds_report(rows))
