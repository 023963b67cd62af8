"""Benchmark harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.bench.runner` — timing helpers (run a query N times under a
  planner and average; the TMin oracle keeps the fastest of several).
* :mod:`repro.bench.job_bench` — Figures 3a-3d over the JOB-style workload.
* :mod:`repro.bench.synthetic_bench` — Figures 4a-4d over the synthetic
  workload.
* :mod:`repro.bench.report` — plain-text tables for the results.
* :mod:`repro.bench.figures` — command-line entry point
  (``python -m repro.bench.figures fig3a``).
"""

from repro.bench.job_bench import JobFigureResult, run_job_figure
from repro.bench.runner import TMIN_CANDIDATES, BenchmarkMeasurement, time_fastest, time_query
from repro.bench.synthetic_bench import SyntheticSweepResult, run_synthetic_figure
from repro.bench.report import format_table

__all__ = [
    "TMIN_CANDIDATES",
    "BenchmarkMeasurement",
    "JobFigureResult",
    "SyntheticSweepResult",
    "format_table",
    "run_job_figure",
    "run_synthetic_figure",
    "time_fastest",
    "time_query",
]
