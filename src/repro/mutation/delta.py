"""Commit descriptions: what one mutation batch did to each table.

A committed batch is summarized as one :class:`MutationCommit` holding a
:class:`TableDelta` per mutated table.  Deltas are the currency of
incremental maintenance: they carry exactly the per-column summary numbers
(appended row/NULL/distinct counts, appended min/max bounds, NULLs among the
newly deleted rows) that :meth:`repro.stats.table_stats.TableStats.apply_delta`
needs to produce the new table's statistics without rescanning it, and that
the disk append log (format v3) records so a loaded catalog seeds the same
statistics.

Everything here is a frozen value object — commits are facts, not handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.column import Column


@dataclass(frozen=True)
class ColumnDelta:
    """Summary of one column's change inside a table delta.

    ``appended_min`` / ``appended_max`` are ``None`` when the appended
    segment holds no non-NULL value.  ``appended_distinct`` counts distinct
    non-NULL values *within the segment* — merged distinct counts are
    therefore upper-bound estimates until the next full statistics
    collection (or ``repro compact``) restores exactness, unless the table
    carries the column's dictionary: then ``distinct_count`` is the exact
    count of the post-commit column and replaces the estimate.
    """

    name: str
    appended_rows: int = 0
    appended_nulls: int = 0
    appended_distinct: int = 0
    distinct_count: int | None = None
    appended_min: object | None = None
    appended_max: object | None = None
    #: NULL cells among the rows this delta deleted (they were live before).
    deleted_nulls: int = 0


@dataclass(frozen=True)
class TableDelta:
    """One table's mutation inside a committed batch."""

    table: str
    old_version: int
    new_version: int
    #: Physical rows before the commit (appends start at this position).
    old_num_rows: int
    appended_rows: int = 0
    #: Newly deleted positions (global, ascending, all live beforehand).
    deleted_positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    columns: dict[str, ColumnDelta] = field(default_factory=dict)

    @property
    def deleted_count(self) -> int:
        """Number of rows this delta deleted."""
        return int(self.deleted_positions.size)

    def describe(self) -> str:
        """``table: +a rows, -d rows (vN -> vM)`` for logs and CLI output."""
        return (
            f"{self.table}: +{self.appended_rows} rows, -{self.deleted_count} rows "
            f"(v{self.old_version} -> v{self.new_version})"
        )


@dataclass(frozen=True)
class MutationCommit:
    """The outcome of one committed mutation batch."""

    #: Catalog version after the commit (bumped exactly once per batch).
    version: int
    deltas: dict[str, TableDelta] = field(default_factory=dict)

    @property
    def tables(self) -> list[str]:
        """Names of the mutated tables."""
        return list(self.deltas)

    def describe(self) -> str:
        """Multi-line summary, one line per table delta."""
        if not self.deltas:
            return f"(empty commit at v{self.version})"
        return "\n".join(delta.describe() for delta in self.deltas.values())


def column_delta_for_segment(
    name: str,
    segment: Column | None,
    old_column: Column,
    deleted: np.ndarray,
    dictionary=None,
) -> ColumnDelta:
    """Build the :class:`ColumnDelta` of one column for one commit.

    Args:
        name: column name.
        segment: the appended values as a (small) column, or ``None`` for a
            delete-only commit.
        old_column: the pre-commit column (NULLs of deleted rows are counted
            against it).
        deleted: newly deleted global positions.
        dictionary: the post-commit table's carried encoding of the column,
            when it has one (its ``num_values`` is the exact distinct count).
    """
    deleted_nulls = (
        int(old_column.null_mask[deleted].sum()) if deleted.size else 0
    )
    if segment is None or len(segment) == 0:
        return ColumnDelta(name=name, deleted_nulls=deleted_nulls)
    bounds = segment.min_max()
    seg_min, seg_max = (None, None) if bounds is None else bounds
    return ColumnDelta(
        name=name,
        appended_rows=len(segment),
        appended_nulls=int(segment.null_mask.sum()),
        appended_distinct=segment.distinct_count(),
        distinct_count=None if dictionary is None else dictionary.num_values,
        appended_min=seg_min,
        appended_max=seg_max,
        deleted_nulls=deleted_nulls,
    )
