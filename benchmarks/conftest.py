"""Shared configuration for the figure-regeneration benchmarks.

Every bench regenerates one table or figure of the paper at a reduced
(but shape-preserving) scale, prints the series to stdout, writes CSVs
under ``results/``, and asserts the paper's qualitative claim.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — load scale for the evaluation runs
  (default 50; 1 = the paper's full scale, slower by ~50x).
* ``REPRO_BENCH_DURATION`` — trace duration in seconds (default 700,
  the paper's 12-minute runs are 720 s).
* ``REPRO_BENCH_JOBS`` — worker processes for the grid-shaped benches
  (default: one per grid cell, capped at cpu_count - 1).
* ``REPRO_BENCH_CACHE`` — set to ``0`` to bypass the on-disk result
  cache (grid benches share cached runs by spec digest by default,
  e.g. the two Fig. 10 benches reuse the same two runs).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.engine import ExperimentEngine
from repro.experiments.report import ensure_results_dir

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "50"))
BENCH_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "700"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "3"))


def bench_engine(grid: int = 1) -> ExperimentEngine:
    """Engine for a grid of ``grid`` independent runs.

    Defaults to one worker per cell (capped to leave a core free) and
    the shared on-disk cache under ``results/cache/``, so identical
    specs across benches execute once per schema version.
    """
    jobs_env = os.environ.get("REPRO_BENCH_JOBS", "")
    if jobs_env:
        jobs = max(1, int(jobs_env))
    else:
        jobs = max(1, min(grid, (os.cpu_count() or 2) - 1))
    use_cache = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"
    return ExperimentEngine(jobs=jobs, use_cache=use_cache)


@pytest.fixture(scope="session")
def results_dir() -> str:
    return ensure_results_dir(os.path.join(os.path.dirname(__file__), "..", "results"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive figure generator exactly once under the
    pytest-benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed(fn, *args, **kwargs):
    """Run ``fn`` once; returns ``(result, wall_seconds)``.

    For benches that need the measured wall-clock as a *value* (e.g.
    overhead ratios) rather than only in the benchmark report.
    """
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
