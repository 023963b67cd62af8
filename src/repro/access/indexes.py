"""Secondary indexes: bitmap indexes and sorted (value → positions) indexes.

Both index kinds answer a base predicate on their column with the *exact*
set of rows where the predicate evaluates to TRUE, materialized as a
:class:`~repro.storage.bitmap.Bitmap` — the same structure the tagged and
bypass pipelines move around — so index results compose with every execution
model unchanged.

* :class:`BitmapIndex` — for low-distinct columns.  Backed by a
  :class:`~repro.access.dictionary.DictionaryEncoding`; equality, IN, ``!=``
  and (via the sorted dictionary) range predicates are unions of per-value
  position lists.
* :class:`SortedIndex` — one argsort of the column.  Range and equality
  predicates become ``searchsorted`` slices of the position array.

NULL cells (and float NaN) are excluded from both structures and tracked
separately, which is what makes ``IS [NOT] NULL`` and ``!=`` answers exact
under three-valued logic: a NULL row never satisfies a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.access.dictionary import DictionaryEncoding, table_dictionary
from repro.expr.ast import (
    BetweenPredicate,
    BooleanExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    IsNullPredicate,
    Literal,
)
from repro.storage.bitmap import Bitmap
from repro.storage.column import Column, ColumnType

#: ``auto`` index creation picks a bitmap index when the column's distinct
#: count does not exceed ``max(BITMAP_MIN_DISTINCT, sqrt(num_rows))``.
BITMAP_MIN_DISTINCT = 64

#: Index kinds accepted by :func:`build_index`.
INDEX_KINDS = ("bitmap", "sorted")


@dataclass(frozen=True)
class IndexDef:
    """The durable identity of one secondary index."""

    table: str
    column: str
    kind: str

    def describe(self) -> str:
        """``table.column (kind)`` — used by CLI listings."""
        return f"{self.table}.{self.column} ({self.kind})"


def choose_index_kind(column: Column) -> str:
    """The ``auto`` policy: bitmap for low-distinct columns, sorted otherwise."""
    threshold = max(BITMAP_MIN_DISTINCT, int(len(column) ** 0.5))
    return "bitmap" if column.distinct_count() <= threshold else "sorted"


def build_index(column: Column, kind: str = "auto", table=None):
    """Materialize an index over ``column``; returns the index object.

    A bitmap index over a column of ``table`` is built from (and shares)
    the table's predicate dictionary when the column has one.
    """
    if kind == "auto":
        kind = choose_index_kind(column)
    if kind == "bitmap":
        shared = None if table is None else table_dictionary(table, column.name)
        return BitmapIndex.build(column, shared)
    if kind == "sorted":
        return SortedIndex.build(column)
    raise ValueError(f"unknown index kind {kind!r}; choose one of {INDEX_KINDS} or 'auto'")


def _comparable_literal(predicate: Comparison) -> tuple[str, object] | None:
    """``(op, literal)`` oriented so the column is on the left, else None."""
    left, right = predicate.left, predicate.right
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return (predicate.op, right.value) if right.value is not None else None
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        if left.value is None:
            return None
        return flipped[predicate.op], left.value
    return None


class _IndexBase:
    """Shared lookup plumbing of the two index kinds."""

    kind = ""

    def __init__(self, size: int, null_positions: np.ndarray) -> None:
        self.size = size
        self.null_positions = null_positions

    # -- subclass contract -------------------------------------------------- #
    def _eq_positions(self, value) -> np.ndarray:
        raise NotImplementedError

    def _range_positions(self, op: str, value) -> np.ndarray | None:
        raise NotImplementedError

    # -- shared ------------------------------------------------------------- #
    def _renumbered(self, live: np.ndarray) -> np.ndarray:
        """Old position -> position among the ascending survivors ``live`` (-1 = gone)."""
        renumbered = np.full(self.size, -1, dtype=np.int64)
        renumbered[live] = np.arange(live.shape[0], dtype=np.int64)
        return renumbered

    def _bitmap(self, positions: np.ndarray) -> Bitmap:
        bits = np.zeros(self.size, dtype=np.bool_)
        if positions.size:
            bits[positions] = True
        return Bitmap(bits)

    def lookup(self, predicate: BooleanExpr) -> Bitmap | None:
        """Rows where ``predicate`` is TRUE, or None when unsupported.

        The result is exact (not a superset): callers may both prune with it
        and, in principle, answer the predicate from it.
        """
        try:
            return self._lookup(predicate)
        except TypeError:
            return None  # incomparable literal type

    def _lookup(self, predicate: BooleanExpr) -> Bitmap | None:
        if isinstance(predicate, Comparison):
            oriented = _comparable_literal(predicate)
            if oriented is None:
                return None
            op, value = oriented
            if op == "=":
                return self._bitmap(self._eq_positions(value))
            if op == "!=":
                matched = self._bitmap(self._eq_positions(value))
                non_null = self._bitmap(self.null_positions).complement()
                return non_null.difference(matched)
            positions = self._range_positions(op, value)
            return None if positions is None else self._bitmap(positions)
        if isinstance(predicate, InPredicate):
            operand = predicate.operand
            if not isinstance(operand, ColumnRef):
                return None
            hits = [
                self._eq_positions(value)
                for value in predicate.values
                if value is not None
            ]
            if not hits:
                return Bitmap.empty(self.size)
            return self._bitmap(np.concatenate(hits))
        if isinstance(predicate, BetweenPredicate):
            if not isinstance(predicate.operand, ColumnRef):
                return None
            low = predicate.low.value if isinstance(predicate.low, Literal) else None
            high = predicate.high.value if isinstance(predicate.high, Literal) else None
            if low is None or high is None:
                return None
            lower = self._range_positions(">=", low)
            upper = self._range_positions("<=", high)
            if lower is None or upper is None:
                return None
            return self._bitmap(lower).intersection(self._bitmap(upper))
        if isinstance(predicate, IsNullPredicate):
            if not isinstance(predicate.operand, ColumnRef):
                return None
            nulls = self._bitmap(self.null_positions)
            return nulls.complement() if predicate.negated else nulls
        return None


class BitmapIndex(_IndexBase):
    """Value → row-position index over a dictionary-encoded column."""

    kind = "bitmap"

    def __init__(
        self,
        dictionary: DictionaryEncoding,
        order: np.ndarray,
        boundaries: np.ndarray,
        null_positions: np.ndarray,
    ) -> None:
        super().__init__(dictionary.num_rows, null_positions)
        self.dictionary = dictionary
        self._order = order
        self._boundaries = boundaries

    @classmethod
    def build(
        cls, column: Column, dictionary: DictionaryEncoding | None = None
    ) -> "BitmapIndex":
        """Index ``column``, sharing its ``dictionary`` when the caller holds one."""
        if dictionary is None:
            dictionary = DictionaryEncoding.encode(column)
        order, boundaries = dictionary.grouped_positions()
        # Only true NULLs: float NaN cells are excluded from the dictionary
        # (they never satisfy =/range predicates) but are NOT null — the
        # ``!=`` and ``IS NOT NULL`` answers must keep them.
        null_positions = np.flatnonzero(column.null_mask)
        return cls(dictionary, order, boundaries, null_positions)

    @property
    def num_values(self) -> int:
        """Distinct indexed values."""
        return self.dictionary.num_values

    def positions_for_code(self, code: int) -> np.ndarray:
        """Row positions of one dictionary code."""
        start, stop = self._boundaries[code], self._boundaries[code + 1]
        return self._order[start:stop]

    def extended(
        self,
        column: Column,
        old_num_rows: int,
        dictionary: DictionaryEncoding | None = None,
    ) -> "BitmapIndex":
        """The index of ``column`` after rows were appended at ``old_num_rows``.

        ``dictionary`` is the column's already-extended encoding when the
        caller holds one (the table's, see
        :func:`repro.access.dictionary.carry_dictionaries`); otherwise this
        index's own is extended (:meth:`DictionaryEncoding.extended`).  The
        position grouping is re-derived from the (cheap, int32) code array —
        the full-column value sort of :meth:`build` never runs.  ``self`` is
        not mutated.
        """
        if dictionary is None:
            dictionary = self.dictionary.extended(column, old_num_rows)
        order, boundaries = dictionary.grouped_positions()
        null_positions = np.concatenate(
            [
                self.null_positions,
                np.flatnonzero(column.null_mask[old_num_rows:]) + old_num_rows,
            ]
        )
        return BitmapIndex(dictionary, order, boundaries, null_positions)

    def compacted(
        self, live: np.ndarray, dictionary: DictionaryEncoding | None = None
    ) -> "BitmapIndex":
        """The index of the rows at ascending positions ``live``, renumbered.

        Compaction's twin of :meth:`extended` (``dictionary`` as there):
        codes compacted without a value sort, regrouped, NULL positions
        renumbered — array-equal to :meth:`build` over the surviving rows.
        """
        if dictionary is None:
            dictionary = self.dictionary.compacted(live)
        order, boundaries = dictionary.grouped_positions()
        null_positions = self._renumbered(live)[self.null_positions]
        return BitmapIndex(dictionary, order, boundaries, null_positions[null_positions >= 0])

    def _eq_positions(self, value) -> np.ndarray:
        code = self.dictionary.code_of(value)
        if code < 0:
            return np.empty(0, dtype=np.int64)
        return self.positions_for_code(code)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten into named arrays for sidecar persistence."""
        return {
            "values": self.dictionary.values,
            "codes": self.dictionary.codes,
            "null_positions": self.null_positions,
        }

    @classmethod
    def from_arrays(cls, arrays) -> "BitmapIndex":
        """Rebuild an index persisted by :meth:`to_arrays`."""
        dictionary = DictionaryEncoding(
            np.asarray(arrays["values"]), np.asarray(arrays["codes"], dtype=np.int32)
        )
        order, boundaries = dictionary.grouped_positions()
        return cls(
            dictionary,
            order,
            boundaries,
            np.asarray(arrays["null_positions"], dtype=np.int64),
        )

    def _range_positions(self, op: str, value) -> np.ndarray | None:
        values = self.dictionary.values
        if op == "<":
            stop_code = int(np.searchsorted(values, value, side="left"))
            start_code = 0
        elif op == "<=":
            stop_code = int(np.searchsorted(values, value, side="right"))
            start_code = 0
        elif op == ">":
            start_code = int(np.searchsorted(values, value, side="right"))
            stop_code = self.num_values
        elif op == ">=":
            start_code = int(np.searchsorted(values, value, side="left"))
            stop_code = self.num_values
        else:
            return None
        start, stop = self._boundaries[start_code], self._boundaries[stop_code]
        return self._order[start:stop]


class SortedIndex(_IndexBase):
    """Sorted (value, row-position) pairs answering range predicates."""

    kind = "sorted"

    def __init__(
        self,
        sorted_values: np.ndarray,
        sorted_positions: np.ndarray,
        null_positions: np.ndarray,
        size: int,
    ) -> None:
        super().__init__(size, null_positions)
        self.sorted_values = sorted_values
        self.sorted_positions = sorted_positions

    @classmethod
    def build(cls, column: Column) -> "SortedIndex":
        data = column.data
        excluded = column.null_mask.copy()
        if column.ctype is ColumnType.FLOAT:
            excluded |= np.isnan(data.astype(np.float64))
        # Only true NULLs (see BitmapIndex.build): NaN cells are excluded
        # from the sorted structure but still satisfy != / IS NOT NULL.
        null_positions = np.flatnonzero(column.null_mask)
        valid_positions = np.flatnonzero(~excluded)
        values = data[valid_positions]
        order = np.argsort(values, kind="stable")
        return cls(values[order], valid_positions[order], null_positions, len(column))

    def extended(self, column: Column, old_num_rows: int) -> "SortedIndex":
        """The index of ``column`` after rows were appended at ``old_num_rows``.

        Sorts only the appended segment (O(d log d)) and merges it into the
        existing sorted arrays with one ``searchsorted`` + ``insert`` pass
        (O(n + d)) — the full-column argsort of :meth:`build` never runs.
        Appended positions are inserted *after* equal existing values, which
        is exactly where the stable full rebuild would place them, so an
        extended index is position-for-position identical to a rebuilt one.
        ``self`` is not mutated.
        """
        segment = column.data[old_num_rows:]
        seg_nulls = column.null_mask[old_num_rows:]
        excluded = seg_nulls.copy()
        if column.ctype is ColumnType.FLOAT:
            excluded |= np.isnan(segment.astype(np.float64))
        seg_positions = np.flatnonzero(~excluded).astype(np.int64) + old_num_rows
        seg_values = segment[~excluded]
        order = np.argsort(seg_values, kind="stable")
        seg_values = seg_values[order]
        seg_positions = seg_positions[order]
        insert_at = np.searchsorted(self.sorted_values, seg_values, side="right")
        return SortedIndex(
            np.insert(self.sorted_values, insert_at, seg_values),
            np.insert(self.sorted_positions, insert_at, seg_positions),
            np.concatenate(
                [self.null_positions, np.flatnonzero(seg_nulls) + old_num_rows]
            ),
            len(column),
        )

    def compacted(self, live: np.ndarray) -> "SortedIndex":
        """The index of the rows at ascending positions ``live``, renumbered.

        Filters the sorted arrays through the old -> new position map: it is
        monotonic, so value order and the position order among equal values
        both survive — array-equal to :meth:`build` over the surviving rows.
        """
        renumbered = self._renumbered(live)
        positions = renumbered[self.sorted_positions]
        kept = positions >= 0
        null_positions = renumbered[self.null_positions]
        return SortedIndex(
            self.sorted_values[kept],
            positions[kept],
            null_positions[null_positions >= 0],
            int(live.shape[0]),
        )

    def _slice(self, start: int, stop: int) -> np.ndarray:
        return self.sorted_positions[start:stop]

    def _eq_positions(self, value) -> np.ndarray:
        start = int(np.searchsorted(self.sorted_values, value, side="left"))
        stop = int(np.searchsorted(self.sorted_values, value, side="right"))
        return self._slice(start, stop)

    def _range_positions(self, op: str, value) -> np.ndarray | None:
        total = self.sorted_values.shape[0]
        if op == "<":
            return self._slice(0, int(np.searchsorted(self.sorted_values, value, "left")))
        if op == "<=":
            return self._slice(0, int(np.searchsorted(self.sorted_values, value, "right")))
        if op == ">":
            return self._slice(int(np.searchsorted(self.sorted_values, value, "right")), total)
        if op == ">=":
            return self._slice(int(np.searchsorted(self.sorted_values, value, "left")), total)
        return None

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten into named arrays for sidecar persistence."""
        return {
            "sorted_values": self.sorted_values,
            "sorted_positions": self.sorted_positions,
            "null_positions": self.null_positions,
            "size": np.array([self.size], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays) -> "SortedIndex":
        """Rebuild an index persisted by :meth:`to_arrays`."""
        return cls(
            np.asarray(arrays["sorted_values"]),
            np.asarray(arrays["sorted_positions"], dtype=np.int64),
            np.asarray(arrays["null_positions"], dtype=np.int64),
            int(arrays["size"][0]),
        )
