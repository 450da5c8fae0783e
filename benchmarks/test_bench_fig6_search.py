"""Benchmark: Fig. 6 — MaxRFC vs MaxRFC+ub vs MaxRFC+ub+HeurRFC (generated datasets).

Runs the three exact-search configurations over the ``k`` sweep (top row of
Fig. 6) and the ``delta`` sweep (bottom row) and writes runtimes, branch
counts, and clique sizes to ``results/timed/fig6_*.txt`` (the committed
``results/fig6_*.txt`` drop the runtimes).

Expected shape: all configurations agree on the optimum; the bound-equipped
and heuristic-seeded configurations explore far fewer branches, and runtimes
fall as ``k`` grows.  (At this scale the absolute speedups are smaller than
the paper's because the reduction pipeline dominates total runtime.)
"""

from __future__ import annotations

from conftest import BENCH_SCALE, write_report

from repro.experiments.search_experiment import (
    format_search_report,
    run_search_experiment,
)

# Two representative generated-attribute datasets keep the benchmark under a
# couple of minutes; add more names for a fuller (slower) sweep.
DATASETS = ("Themarker", "Flixster")


def test_bench_fig6_search_vary_k(benchmark, results_dir):
    rows = benchmark.pedantic(
        run_search_experiment,
        kwargs={"datasets": DATASETS, "scale": BENCH_SCALE, "vary": "k",
                "time_limit": 120.0},
        rounds=1,
        iterations=1,
    )
    assert rows
    write_report(results_dir, "fig6_vary_k", format_search_report(rows))


def test_bench_fig6_search_vary_delta(benchmark, results_dir):
    rows = benchmark.pedantic(
        run_search_experiment,
        kwargs={"datasets": DATASETS, "scale": BENCH_SCALE, "vary": "delta",
                "time_limit": 120.0},
        rounds=1,
        iterations=1,
    )
    assert rows
    write_report(results_dir, "fig6_vary_delta", format_search_report(rows))
