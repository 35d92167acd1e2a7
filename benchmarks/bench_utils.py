"""Shared helpers for the benchmark harness.

Every benchmark regenerates one "evaluation artifact" of the paper (a figure's
scenario or a theorem's bound) and

* measures the runtime of the computation via ``pytest-benchmark``, and
* writes the regenerated rows / series to ``benchmarks/output/<experiment>.txt``
  so the numbers recorded in EXPERIMENTS.md can be re-created with a single
  ``pytest benchmarks/ --benchmark-only`` run.

The instances used here are synthetic (the paper reports no empirical data);
they are sized so the whole harness completes in a few minutes on a laptop
while still being large enough that the asymptotic effects (grid reduction,
runtime scaling) are visible.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis import format_markdown_table, format_table

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def write_result(experiment: str, text: str) -> Path:
    """Persist the regenerated rows/series of one experiment."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    return path


def result_section(title: str, rows, markdown: bool = False) -> str:
    """Format a table section for the experiment output files."""
    fmt = format_markdown_table if markdown else format_table
    return fmt(rows, title=title)


def timed(func):
    """Run ``func`` once, returning ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under the benchmark timer.

    Most experiments here are seconds-long end-to-end computations; re-running
    them dozens of times (pytest-benchmark's default calibration) would make the
    harness needlessly slow without adding information.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


# The standard experiment instances that used to be defined here live in the
# scenario registry (src/repro/scenarios/families.py) — address them by name:
# build("diurnal-cpu-gpu", T=36), ScenarioSpec("homogeneous", {"T": 36}), ...
