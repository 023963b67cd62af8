"""Execution engine: physical execution of plans under any model.

* :mod:`repro.engine.metrics` — runtime work counters and the execution
  context threaded through every operator (forked per morsel under
  parallel execution, reduced deterministically at the end).
* :mod:`repro.engine.parallel` — the morsel-driven parallel driver.
* :mod:`repro.engine.result` — query results returned to callers.
* :mod:`repro.engine.session` — the high-level public API (`Session`).
"""

from repro.engine.metrics import ExecContext, ExecutionMetrics, aggregate_metrics
from repro.engine.result import QueryResult
from repro.engine.session import PreparedPlan, Session

__all__ = [
    "ExecContext",
    "ExecutionMetrics",
    "PreparedPlan",
    "QueryResult",
    "Session",
    "aggregate_metrics",
]
