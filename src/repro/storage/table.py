"""Tables: named collections of equal-length columns.

Besides whole-table access, a table can be split into horizontal
:class:`TablePartition` row-range slices (:meth:`Table.partitions`).  A
partition is a lightweight view — reads still go through the parent table's
columns, so page I/O is accounted against the same page cache and
:class:`~repro.storage.iostats.IOStats` as an unpartitioned read.  Partitions
are the unit of work ("morsels") handed to the parallel execution driver.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.storage.column import Column, ColumnType, append_rows
from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache


def owned_page_range(start: int, stop: int, page_size: int) -> tuple[int, int]:
    """Pages *owned* by the row range ``[start, stop)``: ``[first, end)``.

    A page belongs to the range containing its first row, so the ranges of a
    disjoint partitioning own every page exactly once — the invariant the
    scan-pruning page accounting (``ScanPhysical`` and the morsel driver's
    skipped-partition path) relies on to sum to the table's page count.
    """
    return -(-start // page_size), -(-stop // page_size)


@dataclass(frozen=True)
class TablePartition:
    """A contiguous row-range slice ``[start, stop)`` of a base table.

    Attributes:
        table: the parent table (shared, not copied).
        index: position of this partition in the partition list.
        start: first row of the range (inclusive).
        stop: one past the last row of the range.
    """

    table: "Table"
    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.stop <= self.table.num_rows:
            raise ValueError(
                f"partition [{self.start}, {self.stop}) out of bounds for table "
                f"{self.table.name!r} with {self.table.num_rows} rows"
            )

    @property
    def num_rows(self) -> int:
        """Number of rows in the partition."""
        return self.stop - self.start

    def positions(self) -> np.ndarray:
        """Row positions of the partition (into the parent table)."""
        return np.arange(self.start, self.stop, dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"TablePartition({self.table.name!r}, #{self.index}, "
            f"rows=[{self.start}, {self.stop}))"
        )


class Table:
    """A base table stored column by column.

    Args:
        name: table name as referenced by queries.
        columns: mapping or sequence of :class:`Column` objects, all the same
            length.
        delete_mask: optional boolean array marking logically deleted rows
            (True = deleted).  The physical row range — and therefore page
            geometry, partitioning and column arrays — is unchanged; scans
            simply never emit deleted positions.  Tables stay immutable:
            the mutation subsystem (:mod:`repro.mutation`) commits through
            :meth:`next_version`, a *new* ``Table`` object whose mask is a
            read-only view grown past this one's, so snapshots pinned by
            in-flight prepared plans keep their own view.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column] | Mapping[str, Column],
        delete_mask: np.ndarray | None = None,
    ) -> None:
        self.name = name
        if isinstance(columns, Mapping):
            column_list = list(columns.values())
        else:
            column_list = list(columns)
        if not column_list:
            raise ValueError(f"table {name!r} must have at least one column")
        lengths = {len(column) for column in column_list}
        if len(lengths) > 1:
            raise ValueError(f"table {name!r} has columns of differing lengths: {lengths}")
        self._columns: dict[str, Column] = {}
        for column in column_list:
            if column.name in self._columns:
                raise ValueError(f"duplicate column {column.name!r} in table {name!r}")
            self._columns[column.name] = column
        self._num_rows = lengths.pop()
        if delete_mask is not None:
            delete_mask = np.array(delete_mask, dtype=np.bool_, copy=True)
            if delete_mask.shape[0] != self._num_rows:
                raise ValueError(
                    f"delete mask length {delete_mask.shape[0]} does not match "
                    f"table {name!r} with {self._num_rows} rows"
                )
            if not delete_mask.any():
                delete_mask = None
        self._delete_mask = delete_mask
        self._mask_buffer = None
        self._num_deleted = int(delete_mask.sum()) if delete_mask is not None else 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of *physical* rows (deleted rows included).

        Page geometry, partitioning and scan positions are all
        defined over the physical range; use :attr:`num_live` for the number
        of rows a query can observe.
        """
        return self._num_rows

    @property
    def delete_mask(self) -> np.ndarray | None:
        """Boolean array marking deleted positions, or None when none are."""
        return self._delete_mask

    @property
    def num_deleted(self) -> int:
        """Number of logically deleted rows."""
        return self._num_deleted

    @property
    def num_live(self) -> int:
        """Number of rows visible to queries (physical minus deleted)."""
        return self._num_rows - self._num_deleted

    def has_deletes(self) -> bool:
        """Whether any row is logically deleted."""
        return self._delete_mask is not None

    def live_positions_in(self, positions: np.ndarray) -> np.ndarray:
        """``positions`` with deleted rows removed (no copy when none are)."""
        if self._delete_mask is None or positions.size == 0:
            return positions
        return positions[~self._delete_mask[positions]]

    def next_version(self, columns: Sequence[Column], deleted: np.ndarray) -> "Table":
        """The table after one commit: ``columns`` and ``deleted`` newly deleted.

        ``columns`` are this table's columns with the commit's rows appended
        (or these very columns); ``deleted`` are unique positions live in the
        new version — appended rows included, as when compaction re-applies
        the commits that landed while its fold ran.  The delete mask grows
        through :func:`~repro.storage.column.append_rows`: in place when
        nothing is deleted; a commit that deletes takes the copy branch,
        since it changes old positions, and sets its positions in the new
        buffer before the view is handed out.  The mask is never re-counted.
        """
        table = Table(self.name, columns)
        appended = np.zeros(table.num_rows - self._num_rows, dtype=np.bool_)
        mask, buffer = self._delete_mask, self._mask_buffer
        if deleted.size:
            if mask is None:
                mask = np.broadcast_to(np.False_, self._num_rows)
            mask, buffer = append_rows(mask, appended, None)
            buffer.array[deleted] = True
        elif mask is not None and appended.size:
            mask, buffer = append_rows(mask, appended, buffer)
        table._delete_mask, table._mask_buffer = mask, buffer
        table._num_deleted = self._num_deleted + int(deleted.size)
        return table

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return list(self._columns)

    @property
    def page_size(self) -> int:
        """Rows per simulated disk page (taken from the first column)."""
        return next(iter(self._columns.values())).page_size

    @property
    def num_pages(self) -> int:
        """Simulated pages per column (taken from the first column)."""
        return next(iter(self._columns.values())).num_pages

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def column(self, name: str) -> Column:
        """Return the column called ``name``; raise KeyError if absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {', '.join(self._columns)}"
            ) from None

    def columns(self) -> list[Column]:
        """All columns, in declaration order."""
        return list(self._columns.values())

    def __repr__(self) -> str:
        deleted = f", deleted={self.num_deleted}" if self.has_deletes() else ""
        return f"Table({self.name!r}, rows={self.num_rows}{deleted}, columns={self.column_names})"

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def read_column_at(
        self,
        column_name: str,
        positions: np.ndarray,
        cache: LFUPageCache | None = None,
        iostats: IOStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read one column at explicit (possibly repeated) row positions."""
        return self.column(column_name).read_at(positions, cache=cache, iostats=iostats)

    def row(self, position: int) -> dict[str, object]:
        """Materialize a single row as a dict (NULLs become ``None``)."""
        out: dict[str, object] = {}
        for name, column in self._columns.items():
            if column.null_mask[position]:
                out[name] = None
            else:
                value = column.data[position]
                out[name] = value.item() if isinstance(value, np.generic) else value
        return out

    def rows(self, positions: Sequence[int] | np.ndarray | None = None) -> list[dict[str, object]]:
        """Materialize several rows (all rows when ``positions`` is None)."""
        if positions is None:
            positions = range(self._num_rows)
        return [self.row(int(position)) for position in positions]

    # ------------------------------------------------------------------ #
    # Horizontal partitioning
    # ------------------------------------------------------------------ #
    def partitions(self, count: int) -> list[TablePartition]:
        """Split the table into ``count`` contiguous row-range partitions.

        Row ranges are balanced the way :func:`numpy.array_split` balances
        array chunks: the first ``num_rows % count`` partitions get one extra
        row.  ``count`` is clamped to the number of rows, so no partition is
        empty — except for an empty table, which yields a single empty
        partition so callers always have at least one unit of work.
        """
        if count < 1:
            raise ValueError(f"partition count must be positive, got {count}")
        if self._num_rows == 0:
            return [TablePartition(self, 0, 0, 0)]
        count = min(count, self._num_rows)
        base, extra = divmod(self._num_rows, count)
        partitions: list[TablePartition] = []
        start = 0
        for index in range(count):
            stop = start + base + (1 if index < extra else 0)
            partitions.append(TablePartition(self, index, start, stop))
            start = stop
        return partitions

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(
        cls,
        name: str,
        data: Mapping[str, Sequence],
        types: Mapping[str, ColumnType] | None = None,
    ) -> "Table":
        """Build a table from ``{column_name: values}``."""
        types = types or {}
        columns = [
            Column(column_name, values, ctype=types.get(column_name))
            for column_name, values in data.items()
        ]
        return cls(name, columns)

    @classmethod
    def from_rows(
        cls,
        name: str,
        rows: Sequence[Mapping[str, object]],
        types: Mapping[str, ColumnType] | None = None,
    ) -> "Table":
        """Build a table from a list of row dictionaries."""
        if not rows:
            raise ValueError("from_rows requires at least one row")
        column_names = list(rows[0])
        data = {
            column_name: [row.get(column_name) for row in rows]
            for column_name in column_names
        }
        return cls.from_dict(name, data, types=types)
