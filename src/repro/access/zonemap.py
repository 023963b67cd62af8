"""Per-page zone maps: min/max + null-count sketches over a column.

A zone map summarizes each simulated disk page of a column (see
:data:`repro.storage.column.DEFAULT_PAGE_SIZE`) with the minimum and maximum
non-NULL value it holds plus the number of NULL cells.  A base predicate that
compares the column against literals can then rule out entire pages before a
single value is read: if ``max(page) < 10``, no row of that page satisfies
``col > 10``.

Pruning is *sound under three-valued logic*: a page is skipped only when the
predicate cannot evaluate to TRUE for any of its rows — FALSE and UNKNOWN
rows are both safe to drop for a predicate the scan's WHERE clause implies
(see :mod:`repro.access.pruning`).  Genuine float NaN values are excluded
from the min/max bounds; a NaN cell can never make a supported predicate
TRUE, so the bounds stay valid.
"""

from __future__ import annotations

import numpy as np

from repro.access.pruning import PageMask
from repro.expr.ast import (
    BetweenPredicate,
    BooleanExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
    Literal,
)
from repro.storage.column import Column, ColumnType


class ColumnZoneMap:
    """Min/max/null-count summaries for every page of one column.

    Attributes:
        column_name: name of the summarized column.
        page_size: rows per page (copied from the column).
        num_pages: number of pages summarized.
        mins / maxs: per-page min/max of the non-NULL, non-NaN values
            (``None`` for a page with no such values).
        null_counts: per-page NULL-cell counts.
        row_counts: per-page row counts (the last page may be short).
    """

    __slots__ = (
        "column_name",
        "page_size",
        "num_pages",
        "mins",
        "maxs",
        "null_counts",
        "row_counts",
    )

    def __init__(
        self,
        column_name: str,
        page_size: int,
        mins: list,
        maxs: list,
        null_counts: np.ndarray,
        row_counts: np.ndarray,
    ) -> None:
        self.column_name = column_name
        self.page_size = page_size
        self.num_pages = len(mins)
        self.mins = mins
        self.maxs = maxs
        self.null_counts = null_counts
        self.row_counts = row_counts

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #
    def page_mask(self, predicate: BooleanExpr) -> np.ndarray | None:
        """Pages that *may* contain a row where ``predicate`` is TRUE.

        Returns a boolean array of length :attr:`num_pages` (True = keep the
        page), or ``None`` when the predicate shape is not answerable from
        min/max/null sketches — callers must then treat every page as a
        candidate.
        """
        parts = _normalize(predicate, self.column_name)
        if parts is None:
            return None
        op, payload = parts
        try:
            return self._evaluate(op, payload)
        except TypeError:
            # Incomparable literal type (e.g. string literal against an int
            # column): no sound pruning decision can be made.
            return None

    def _evaluate(self, op: str, payload) -> np.ndarray | None:
        keep = np.zeros(self.num_pages, dtype=np.bool_)
        if op == "is_null":
            return self.null_counts > 0
        if op == "is_not_null":
            return self.null_counts < self.row_counts
        for page in range(self.num_pages):
            low, high = self.mins[page], self.maxs[page]
            if low is None:
                continue  # no comparable value on the page -> never TRUE
            if op == "=":
                keep[page] = low <= payload <= high
            elif op == "<":
                keep[page] = low < payload
            elif op == "<=":
                keep[page] = low <= payload
            elif op == ">":
                keep[page] = high > payload
            elif op == ">=":
                keep[page] = high >= payload
            elif op == "between":
                keep[page] = payload[0] <= high and payload[1] >= low
            elif op == "in":
                keep[page] = any(low <= value <= high for value in payload)
            elif op == "prefix":
                # The prefix range is lexicographic; numeric min/max do not
                # bound the str() images of a page's values (str(99) >
                # str(112)), so LIKE pruning is only sound on string bounds.
                if not isinstance(low, str):
                    return None
                keep[page] = payload[0] <= high and (
                    payload[1] is None or payload[1] > low
                )
            else:  # pragma: no cover - _normalize only emits the ops above
                return None
        return keep

    def candidate_pages(self, predicate: BooleanExpr, num_rows: int) -> PageMask | None:
        """The page mask with its geometry, as candidate-set evidence.

        It stays page-granular for composition (see
        :func:`repro.access.pruning.candidate_positions`): rows are only
        listed when it is the final set or is unioned with exact positions.
        """
        pages = self.page_mask(predicate)
        if pages is None:
            return None
        return PageMask(pages, self.page_size, num_rows)

    def __repr__(self) -> str:
        return (
            f"ColumnZoneMap({self.column_name!r}, pages={self.num_pages}, "
            f"page_size={self.page_size})"
        )

    # ------------------------------------------------------------------ #
    # Serialization (sidecar files, see repro.storage.disk)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten into named arrays for ``np.savez``-style persistence."""
        has_bounds = np.array([value is not None for value in self.mins], dtype=np.bool_)
        filler = next((value for value in self.mins if value is not None), 0)
        mins = np.array([filler if value is None else value for value in self.mins])
        maxs = np.array([filler if value is None else value for value in self.maxs])
        return {
            "mins": mins,
            "maxs": maxs,
            "has_bounds": has_bounds,
            "null_counts": self.null_counts,
            "row_counts": self.row_counts,
            "page_size": np.array([self.page_size], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, column_name: str, arrays) -> "ColumnZoneMap":
        """Rebuild a zone map persisted by :meth:`to_arrays`."""
        has_bounds = arrays["has_bounds"]
        mins = [
            value if flag else None
            for value, flag in zip(arrays["mins"].tolist(), has_bounds)
        ]
        maxs = [
            value if flag else None
            for value, flag in zip(arrays["maxs"].tolist(), has_bounds)
        ]
        return cls(
            column_name,
            int(arrays["page_size"][0]),
            mins,
            maxs,
            np.asarray(arrays["null_counts"], dtype=np.int64),
            np.asarray(arrays["row_counts"], dtype=np.int64),
        )


def build_zone_map(column: Column) -> ColumnZoneMap:
    """Build the zone map of one column (one pass over its pages)."""
    return _summarize_pages(column, 0, column.num_pages)


def extend_zone_map(
    zone_map: ColumnZoneMap, column: Column, old_num_rows: int
) -> ColumnZoneMap:
    """The zone map of ``column`` after rows were appended at ``old_num_rows``.

    Only the *dirty tail* is recomputed: the page containing the first
    appended row (which may have been partially filled before) and every
    page after it.  Pages before that are carried over unchanged, so the
    cost is O(appended rows), not O(table).  ``zone_map`` is not mutated —
    snapshots of the old version keep their structures.
    """
    if zone_map.page_size != column.page_size:
        return build_zone_map(column)  # geometry changed: no reusable pages
    first_dirty = old_num_rows // zone_map.page_size
    tail = _summarize_pages(column, first_dirty, column.num_pages)
    return ColumnZoneMap(
        column.name,
        zone_map.page_size,
        list(zone_map.mins[:first_dirty]) + tail.mins,
        list(zone_map.maxs[:first_dirty]) + tail.maxs,
        np.concatenate([zone_map.null_counts[:first_dirty], tail.null_counts]),
        np.concatenate([zone_map.row_counts[:first_dirty], tail.row_counts]),
    )


def _summarize_pages(column: Column, first_page: int, end_page: int) -> ColumnZoneMap:
    """Summarize pages ``[first_page, end_page)`` of a column."""
    num_rows = len(column)
    page_size = column.page_size
    data = column.data
    nulls = column.null_mask
    is_float = column.ctype is ColumnType.FLOAT

    count = max(end_page - first_page, 0)
    mins: list = []
    maxs: list = []
    null_counts = np.zeros(count, dtype=np.int64)
    row_counts = np.zeros(count, dtype=np.int64)
    for slot, page in enumerate(range(first_page, end_page)):
        start = page * page_size
        stop = min(num_rows, start + page_size)
        page_nulls = nulls[start:stop]
        null_count = int(page_nulls.sum())
        null_counts[slot] = null_count
        row_counts[slot] = stop - start
        values = data[start:stop]
        if null_count:
            values = values[~page_nulls]
        if is_float and values.size:
            values = values[~np.isnan(values.astype(np.float64))]
        if values.size == 0:
            mins.append(None)
            maxs.append(None)
        else:
            mins.append(values.min())
            maxs.append(values.max())
    return ColumnZoneMap(column.name, page_size, mins, maxs, null_counts, row_counts)


# --------------------------------------------------------------------------- #
# Predicate normalization
# --------------------------------------------------------------------------- #
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _literal(value_expr) -> object | None:
    if isinstance(value_expr, Literal) and value_expr.value is not None:
        return value_expr.value
    return None


def _like_prefix_bounds(pattern: str) -> tuple[str, str | None] | None:
    """``(low, high)`` bounds of the strings matching a prefix-only pattern.

    Only patterns of the form ``prefix%`` (or ``prefix%more...`` — the prefix
    before the first wildcard is what bounds the match) yield a range; a
    leading wildcard matches anywhere, so no bound exists.  ``high`` is the
    exclusive upper bound (prefix with its last character incremented), or
    ``None`` when the increment would overflow.
    """
    cut = len(pattern)
    for position, char in enumerate(pattern):
        if char in ("%", "_"):
            cut = position
            break
    prefix = pattern[:cut]
    if not prefix:
        return None
    if cut == len(pattern):
        # No wildcard at all: LIKE degenerates to equality on the pattern.
        return prefix, prefix + "\x00"
    last = prefix[-1]
    if ord(last) >= 0x10FFFF:
        return prefix, None
    return prefix, prefix[:-1] + chr(ord(last) + 1)


def zone_map_supported(predicate: BooleanExpr, column_name: str) -> bool:
    """Whether :meth:`ColumnZoneMap.page_mask` can answer ``predicate``."""
    return _normalize(predicate, column_name) is not None


def _normalize(predicate: BooleanExpr, column_name: str):
    """Reduce a base predicate to ``(op, payload)`` against ``column_name``.

    Returns ``None`` when the predicate is not a supported single-column
    comparison against literals.
    """
    if isinstance(predicate, Comparison):
        if predicate.op == "!=":
            # NaN != literal is TRUE under NumPy semantics, so min/max bounds
            # (which exclude NaN) cannot soundly prune inequality.
            return None
        left, right = predicate.left, predicate.right
        if isinstance(left, ColumnRef) and left.column == column_name:
            value = _literal(right)
            return None if value is None else (predicate.op, value)
        if isinstance(right, ColumnRef) and right.column == column_name:
            value = _literal(left)
            flipped = _FLIPPED.get(predicate.op)
            return None if value is None or flipped is None else (flipped, value)
        return None
    if isinstance(predicate, BetweenPredicate):
        operand = predicate.operand
        if not (isinstance(operand, ColumnRef) and operand.column == column_name):
            return None
        low, high = _literal(predicate.low), _literal(predicate.high)
        if low is None or high is None:
            return None
        return "between", (low, high)
    if isinstance(predicate, InPredicate):
        operand = predicate.operand
        if not (isinstance(operand, ColumnRef) and operand.column == column_name):
            return None
        values = [value for value in predicate.values if value is not None]
        if not values:
            return None
        return "in", tuple(values)
    if isinstance(predicate, IsNullPredicate):
        operand = predicate.operand
        if not (isinstance(operand, ColumnRef) and operand.column == column_name):
            return None
        return ("is_not_null" if predicate.negated else "is_null"), None
    if isinstance(predicate, LikePredicate):
        operand = predicate.operand
        if (
            not isinstance(operand, ColumnRef)
            or operand.column != column_name
            or predicate.case_insensitive
        ):
            return None
        bounds = _like_prefix_bounds(predicate.pattern)
        return None if bounds is None else ("prefix", bounds)
    return None
