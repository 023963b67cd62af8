"""Output-shaping clauses: aggregates, GROUP BY, ORDER BY, LIMIT, DISTINCT.

The paper's evaluation queries are SELECT-PROJECT-JOIN queries (the JOB
queries it derives from also carry MIN() aggregates, which the benchmark
traditionally strips).  To make the engine usable for the reporting-style
queries the JOB workload actually contains, the query layer supports the
standard output-shaping clauses.  They are applied *after* the execution
model produced the joined, filtered tuple set, so they are identical for the
traditional and tagged models and never interact with tag management.

This module defines the plan-level descriptions; the evaluation lives in
:mod:`repro.engine.postprocess`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.expr.ast import ColumnRef


class AggregateFunction(enum.Enum):
    """Supported SQL aggregate functions."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list.

    Attributes:
        function: which aggregate to compute.
        argument: the input column, or ``None`` for ``COUNT(*)``.
        distinct: ``True`` for ``COUNT(DISTINCT column)``.
    """

    function: AggregateFunction
    argument: ColumnRef | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.argument is None and self.function is not AggregateFunction.COUNT:
            raise ValueError(f"{self.function.value} requires a column argument")
        if self.distinct and self.function is not AggregateFunction.COUNT:
            raise ValueError("DISTINCT is only supported inside COUNT")

    def label(self) -> str:
        """The output column name, e.g. ``COUNT(*)`` or ``MIN(t.title)``."""
        if self.argument is None:
            inner = "*"
        else:
            inner = self.argument.key()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.function.value}({inner})"

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key.

    The key names an output column: either a qualified column name
    (``alias.column``) or an aggregate label (``COUNT(*)``).  NULLs always
    sort last, regardless of direction.
    """

    key: str
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.key} {'DESC' if self.descending else 'ASC'}"
