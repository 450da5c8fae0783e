"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section VI) on the scaled-down dataset stand-ins and writes the formatted
rows out so the numbers behind each figure can be inspected after a run:

* ``benchmarks/results/<experiment>.txt`` keeps only what is identical from
  run to run (sizes, gaps, branches, counts, ``optimal``) and is committed;
* ``benchmarks/results/timed/<experiment>.txt`` is the full report, wall-clock
  columns included, and is not committed.

The scale factor below trades fidelity for wall-clock time; raise it (e.g. to
1.0) for a slower, closer-to-the-paper run.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

# One knob for the whole harness: fraction of the default stand-in size.
BENCH_SCALE = 0.35
# Datasets grouped the way the paper's figures group them.
GENERATED_DATASETS = ("Themarker", "Google", "DBLP", "Flixster", "Pokec")
REAL_ATTRIBUTE_DATASETS = ("Aminer",)
FAST_DATASETS = ("DBLP", "Aminer")

RESULTS_DIR = Path(__file__).parent / "results"

#: Table columns and summary lines that hold or follow wall-clock measurements
#: (the best bound stack is the fastest one).
_TIMED = re.compile(r"runtime_us|seconds|speedup|best stack")
_RULE = re.compile(r"-+(  -+)*")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where each benchmark drops its formatted report."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def untimed(report: str) -> str:
    """``report`` without its timing columns and timing summary lines.

    A table is a header line over a rule of dashes (the layout of
    :func:`repro.experiments.reporting.format_table`); the rule gives each
    column's span, so a timed column is cut out of every row of its table.
    """
    lines = report.split("\n")
    kept: list[str] = []
    spans: list[tuple[int, int]] | None = None
    for index, line in enumerate(lines):
        following = lines[index + 1] if index + 1 < len(lines) else ""
        if _RULE.fullmatch(following.rstrip()):
            spans = [
                (match.start(), match.end())
                for match in re.finditer(r"-+", following)
                if not _TIMED.search(line[match.start():match.end()])
            ]
        if not line.strip():
            spans = None
        if spans is not None:
            line = "  ".join(line[start:end].ljust(end - start) for start, end in spans)
        elif _TIMED.search(line):
            continue
        kept.append(line)
    return "\n".join(kept).rstrip("\n")


def write_report(results_dir: Path, name: str, report: str) -> None:
    """Persist a formatted experiment report: untimed columns and full report."""
    timed_dir = results_dir / "timed"
    timed_dir.mkdir(exist_ok=True)
    (timed_dir / f"{name}.txt").write_text(report + "\n", encoding="utf-8")
    (results_dir / f"{name}.txt").write_text(untimed(report) + "\n", encoding="utf-8")
