"""Secondary indexes: bitmap indexes and sorted (value → positions) indexes.

Both index kinds answer a base predicate on their column with the *exact*
set of rows where the predicate evaluates to TRUE, as sorted, unique
``int64`` row positions — the candidate-set shape of
:mod:`repro.access.pruning` — so an answer costs what it holds, not the
table's length (only the complements ``!=`` and ``IS NOT NULL`` are as long
as the table, because they hold nearly all of it).

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
    """Shared lookup plumbing of the two index kinds.

    Both hold the indexed (non-NULL, non-NaN) row positions ordered by
    value, and a sorted array of search keys whose binary-search slots map
    to slices of that order (:meth:`_positions`).  Every lookup answers with
    sorted, unique ``int64`` row positions.
    """

    kind = ""

    def __init__(self, size: int, null_positions: np.ndarray) -> None:
        self.size = size
        self.null_positions = null_positions

    # -- subclass contract -------------------------------------------------- #
    @property
    def _keys(self) -> np.ndarray:
        """The sorted search keys."""
        raise NotImplementedError

    def _positions(self, start: int, stop: int) -> np.ndarray:
        """Row positions of keys ``[start, stop)``, ordered by value.

        Positions holding one value are ascending among themselves.
        """
        raise NotImplementedError

    # -- shared ------------------------------------------------------------- #
    def _renumbered(self, live: np.ndarray) -> np.ndarray:
        """Old position -> position among the ascending survivors ``live`` (-1 = gone)."""
        renumbered = np.full(self.size, -1, dtype=np.int64)
        renumbered[live] = np.arange(live.shape[0], dtype=np.int64)
        return renumbered

    def _range(self, low=None, high=None, low_side="left", high_side="right") -> np.ndarray:
        """Row positions whose value lies within the bounds, ordered by value.

        ``low_side="left"`` includes ``low`` (``"right"`` excludes it);
        ``high_side="right"`` includes ``high`` (``"left"`` excludes it); a
        ``None`` bound is open.
        """
        keys = self._keys
        start = 0 if low is None else int(np.searchsorted(keys, low, low_side))
        stop = keys.shape[0] if high is None else int(np.searchsorted(keys, high, high_side))
        return self._positions(start, max(start, stop))

    def _complement(self, *excluded: np.ndarray) -> np.ndarray:
        """Row positions in none of the ``excluded`` sets, ascending."""
        keep = np.ones(self.size, dtype=np.bool_)
        for positions in excluded:
            keep[positions] = False
        return np.flatnonzero(keep)

    def lookup(self, predicate: BooleanExpr) -> np.ndarray | None:
        """Sorted unique positions of the rows where ``predicate`` is TRUE.

        Returns None when the predicate is unsupported.  The result is exact
        (not a superset): callers may both prune with it and, in principle,
        answer the predicate from it.
        """
        try:
            return self._lookup(predicate)
        except TypeError:
            return None  # incomparable literal type

    def _lookup(self, predicate: BooleanExpr) -> np.ndarray | None:
        if isinstance(predicate, Comparison):
            oriented = _comparable_literal(predicate)
            if oriented is None:
                return None
            op, value = oriented
            if op == "=":
                return self._range(value, value)  # one value: already ascending
            if op == "!=":
                return self._complement(self.null_positions, self._range(value, value))
            if op == "<":
                return np.sort(self._range(high=value, high_side="left"))
            if op == "<=":
                return np.sort(self._range(high=value))
            if op == ">":
                return np.sort(self._range(low=value, low_side="right"))
            if op == ">=":
                return np.sort(self._range(low=value))
            return None
        if isinstance(predicate, InPredicate):
            if not isinstance(predicate.operand, ColumnRef):
                return None
            hits = [
                self._range(value, value)
                for value in predicate.values
                if value is not None
            ]
            if not hits:
                return np.empty(0, dtype=np.int64)
            return np.unique(np.concatenate(hits))
        if isinstance(predicate, BetweenPredicate):
            if not isinstance(predicate.operand, ColumnRef):
                return None
            low = predicate.low.value if isinstance(predicate.low, Literal) else None
            high = predicate.high.value if isinstance(predicate.high, Literal) else None
            if low is None or high is None:
                return None
            return np.sort(self._range(low, high))
        if isinstance(predicate, IsNullPredicate):
            if not isinstance(predicate.operand, ColumnRef):
                return None
            if predicate.negated:
                return self._complement(self.null_positions)
            return self.null_positions
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

    @property
    def _keys(self) -> np.ndarray:
        return self.dictionary.values

    def _positions(self, start: int, stop: int) -> np.ndarray:
        return self._order[self._boundaries[start] : self._boundaries[stop]]

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

    @property
    def _keys(self) -> np.ndarray:
        return self.sorted_values

    def _positions(self, start: int, stop: int) -> np.ndarray:
        return self.sorted_positions[start:stop]

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
