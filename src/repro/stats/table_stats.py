"""Per-table and per-column statistics.

Statistics describe the rows a query can observe: for tables carrying a
delete bitmap (see :mod:`repro.mutation`) collection is computed over the
live rows only, so a mutated table and a freshly built table holding the
same live rows collect identical statistics.  After a mutation commit the
service layer avoids recollection entirely via :meth:`TableStats.apply_delta`,
which folds a commit's per-column summary numbers into the previous
statistics — exact for row/NULL counts and min/max bounds widen-only, upper
bound for distinct counts (restored to exact by the next full collection;
exact all along for a string column whose dictionary the table carries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.column import capped_by_span, count_distinct
from repro.storage.table import Table


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one column."""

    name: str
    num_rows: int
    distinct_count: int
    null_count: int
    min_value: object | None
    max_value: object | None

    @property
    def null_fraction(self) -> float:
        """Fraction of rows that are NULL."""
        if self.num_rows == 0:
            return 0.0
        return self.null_count / self.num_rows


@dataclass
class TableStats:
    """Summary statistics of one table."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    #: Rows per simulated disk page (drives page-count cost estimates).
    page_size: int = 1024

    @property
    def num_pages(self) -> int:
        """Simulated pages per column of the table."""
        if self.num_rows == 0:
            return 0
        return -(-self.num_rows // max(self.page_size, 1))

    def column(self, name: str) -> ColumnStats:
        """Statistics for a column; raises KeyError if not collected."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no statistics for column {name!r} of table {self.table_name!r}"
            ) from None

    def distinct_count(self, column_name: str) -> int:
        """Distinct-value count, defaulting to the row count when unknown."""
        if column_name in self.columns:
            return max(1, self.columns[column_name].distinct_count)
        return max(1, self.num_rows)

    def apply_delta(self, delta) -> "TableStats":
        """Statistics of the post-commit table, without rescanning it.

        ``delta`` is a :class:`~repro.mutation.delta.TableDelta` (duck-typed:
        only its count/bound attributes are read).  Row and NULL counts are
        exact; min/max bounds only widen (deleted rows may leave them looser
        than a fresh collection — still sound for estimation and pruning);
        distinct counts are upper-bound estimates (for integer and boolean
        columns no larger than the merged span ``max - min + 1``), except
        where the delta carries the exact count from the column's dictionary.
        """
        new_rows = self.num_rows + delta.appended_rows - delta.deleted_count
        merged = TableStats(
            table_name=self.table_name, num_rows=new_rows, page_size=self.page_size
        )
        for name, old in self.columns.items():
            column_delta = delta.columns.get(name)
            if column_delta is None:
                merged.columns[name] = old
                continue
            appended = column_delta.appended_rows
            min_value, max_value = old.min_value, old.max_value
            if column_delta.appended_min is not None:
                seg_min = _to_python(column_delta.appended_min)
                seg_max = _to_python(column_delta.appended_max)
                if min_value is None:
                    min_value, max_value = seg_min, seg_max
                else:
                    min_value = min(min_value, seg_min)
                    max_value = max(max_value, seg_max)
            merged.columns[name] = ColumnStats(
                name=name,
                num_rows=old.num_rows + appended - delta.deleted_count,
                distinct_count=(
                    column_delta.distinct_count
                    if column_delta.distinct_count is not None
                    else capped_by_span(
                        min(
                            old.distinct_count + column_delta.appended_distinct,
                            max(new_rows, 1),
                        ),
                        None if min_value is None else (min_value, max_value),
                    )
                ),
                null_count=(
                    old.null_count + column_delta.appended_nulls - column_delta.deleted_nulls
                ),
                min_value=min_value,
                max_value=max_value,
            )
        return merged


def collect_table_stats(table: Table) -> TableStats:
    """Compute statistics for every column of a table (live rows only)."""
    if table.has_deletes():
        return _collect_live_stats(table)
    stats = TableStats(
        table_name=table.name, num_rows=table.num_rows, page_size=table.page_size
    )
    for column in table.columns():
        bounds = column.min_max()
        min_value, max_value = (None, None) if bounds is None else bounds
        stats.columns[column.name] = ColumnStats(
            name=column.name,
            num_rows=len(column),
            distinct_count=column.distinct_count(),
            null_count=int(column.null_mask.sum()),
            min_value=min_value if min_value is None else _to_python(min_value),
            max_value=max_value if max_value is None else _to_python(max_value),
        )
    return stats


def _collect_live_stats(table: Table) -> TableStats:
    """Statistics over the live rows of a table with a delete bitmap.

    The column-level memoized statistics cover the physical rows (deleted
    included), so they cannot be used here; this path recomputes from the
    live subset — matching what a freshly built table of the same live rows
    would collect.  The incremental path (:meth:`TableStats.apply_delta`)
    exists precisely so serving deployments rarely pay this.
    """
    live = ~table.delete_mask
    stats = TableStats(
        table_name=table.name, num_rows=table.num_live, page_size=table.page_size
    )
    for column in table.columns():
        nulls = column.null_mask
        valid = column.data[live & ~nulls]
        bounds = (valid.min(), valid.max()) if valid.size else (None, None)
        stats.columns[column.name] = ColumnStats(
            name=column.name,
            num_rows=table.num_live,
            distinct_count=count_distinct(valid),
            null_count=int((nulls & live).sum()),
            min_value=bounds[0] if bounds[0] is None else _to_python(bounds[0]),
            max_value=bounds[1] if bounds[1] is None else _to_python(bounds[1]),
        )
    return stats


def _to_python(value):
    """Convert NumPy scalars to plain Python values for readability."""
    return value.item() if hasattr(value, "item") else value
