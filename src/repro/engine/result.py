"""Query results.

The projection operator materializes the output *columns* as NumPy arrays
(the same index-based lookups Basilisk performs at projection time, and part
of the timed execution).  Building Python row tuples out of those arrays is
an artefact of returning results to Python callers, so it happens lazily the
first time :attr:`QueryResult.rows` is accessed and is not part of the timed
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.metrics import ExecutionMetrics
from repro.obs.history import plan_hash_of
from repro.storage.iostats import IOStats
from repro.storage.table import Table


@dataclass
class OutputColumns:
    """Materialized output: qualified names plus value/null arrays."""

    names: list[str]
    columns: list[tuple[np.ndarray, np.ndarray]]
    row_count: int

    @classmethod
    def merge(cls, batches: list["OutputColumns"]) -> "OutputColumns":
        """Concatenate output batches in order.

        Empty batches are skipped; when every batch is empty, the first one
        is the result (it still carries the names and dtypes that downstream
        aggregation needs).
        """
        non_empty = [batch for batch in batches if batch.row_count > 0]
        if not non_empty:
            return batches[0]
        if len(non_empty) == 1:
            return non_empty[0]
        columns = [
            (
                np.concatenate([batch.columns[position][0] for batch in non_empty]),
                np.concatenate([batch.columns[position][1] for batch in non_empty]),
            )
            for position in range(len(non_empty[0].names))
        ]
        return cls(
            names=list(non_empty[0].names),
            columns=columns,
            row_count=sum(batch.row_count for batch in non_empty),
        )


class QueryResult:
    """The outcome of executing one query.

    Attributes:
        planner_name: which planner produced the executed plan.
        column_names: qualified output column names (``alias.column``).
        planning_seconds / execution_seconds: wall-clock split, as reported
            separately in the paper's Figure 4c.
        metrics: engine work counters.
        iostats: simulated storage traffic.
        plan_description: pretty-printed plan (or plans) that ran.
        plan_hash: hash of ``plan_description``; the session passes the
            one its prepared plan computed, anything else derives it here.
        cache_hit: True when the executed plan came out of a plan cache
            (set by the service layer; always False for direct Session use).
        trace: the :class:`~repro.obs.trace.Tracer` that followed this
            execution, or ``None`` when tracing was off (the default).
    """

    def __init__(
        self,
        planner_name: str,
        output: OutputColumns,
        planning_seconds: float,
        execution_seconds: float,
        metrics: ExecutionMetrics | None = None,
        iostats: IOStats | None = None,
        plan_description: str = "",
        plan_hash: str | None = None,
        cache_hit: bool = False,
        trace=None,
    ) -> None:
        self.planner_name = planner_name
        self.output = output
        self.planning_seconds = planning_seconds
        self.execution_seconds = execution_seconds
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.iostats = iostats if iostats is not None else IOStats()
        self.plan_description = plan_description
        self.plan_hash = plan_hash if plan_hash is not None else plan_hash_of(plan_description)
        self.cache_hit = cache_hit
        self.trace = trace
        self._rows_cache: list[tuple] | None = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> list[str]:
        """Qualified output column names."""
        return self.output.names

    @property
    def row_count(self) -> int:
        """Number of output rows."""
        return self.output.row_count

    @property
    def total_seconds(self) -> float:
        """Planning plus execution time."""
        return self.planning_seconds + self.execution_seconds

    @property
    def rows(self) -> list[tuple]:
        """Output rows as Python tuples (NULLs become ``None``); built lazily."""
        if self._rows_cache is None:
            columns = []
            for values, nulls in self.output.columns:
                python_values = values.tolist()
                for position in np.flatnonzero(nulls):
                    python_values[int(position)] = None
                columns.append(python_values)
            self._rows_cache = list(zip(*columns)) if columns else []
        return self._rows_cache

    def to_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by qualified column name."""
        return [dict(zip(self.column_names, row)) for row in self.rows]

    def sorted_rows(self) -> list[tuple]:
        """Rows in a deterministic order (for comparisons in tests)."""
        return sorted(self.rows, key=lambda row: tuple(str(value) for value in row))

    def __repr__(self) -> str:
        return (
            f"QueryResult(planner={self.planner_name!r}, rows={self.row_count}, "
            f"total={self.total_seconds:.4f}s)"
        )


def materialize_output(
    tables: dict[str, Table],
    indices: dict[str, np.ndarray],
    positions: np.ndarray,
    select: list,
) -> OutputColumns:
    """Materialize output columns for the projection operator.

    Args:
        tables: alias -> base table.
        indices: alias -> row-index array of the final relation.
        positions: relation row positions belonging to the result.
        select: projection columns (empty means every column of every alias).
    """
    if select:
        wanted = [(column.alias, column.column) for column in select]
    else:
        wanted = [
            (alias, column_name)
            for alias in sorted(indices)
            for column_name in tables[alias].column_names
        ]

    names = [f"{alias}.{column_name}" for alias, column_name in wanted]
    columns: list[tuple[np.ndarray, np.ndarray]] = []
    for alias, column_name in wanted:
        row_ids = indices[alias][positions]
        values, nulls = tables[alias].read_column_at(column_name, row_ids)
        columns.append((values, nulls))
    return OutputColumns(names=names, columns=columns, row_count=int(positions.size))

