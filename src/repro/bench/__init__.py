"""Benchmark harness: regenerates every figure of the paper's evaluation.

* :mod:`repro.bench.timing` — :func:`~repro.bench.timing.time_planners`, the
  one routine that times planners against each other (warm-up, rotating
  passes, a fresh session per execution, rows checked on every pass).
* :mod:`repro.bench.figures` — the figures as rows of one table, and the
  command-line entry point (``python -m repro figures fig3a``).
* :mod:`repro.bench.report` — plain-text tables for the results.
"""

from repro.bench.report import format_table
from repro.bench.timing import TMIN_CANDIDATES, PlannerTimes, time_planners

__all__ = ["TMIN_CANDIDATES", "PlannerTimes", "format_table", "time_planners"]
