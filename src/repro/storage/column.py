"""Typed columns with simulated page-granular reads.

A :class:`Column` owns a NumPy array of values plus an optional NULL mask.
Reads go through :meth:`Column.read_at`, which accounts page traffic against
an :class:`~repro.storage.iostats.IOStats` object via an LFU page cache — the
same structure Basilisk uses (Section 5, "System"): a read of few positions
touches only the pages holding them, while a read of many falls back to a
sequential scan of the column.

A read copies only what it must.  The positions are looked at once per
read: when a read the accounting calls sequential (more than
:data:`SEQUENTIAL_SCAN_THRESHOLD` of the rows, counted raw) has strictly
ascending positions, their distinct count is their size, so no table-length
flag array is built; when they are also one contiguous run, the values come
back as a **read-only view** of the column instead of a gather (writing into
them raises ``ValueError``).  Every other read gathers a fresh array.  The
NULL mask returned is always a fresh, writable array: a column with no NULLs
(known from construction) returns ``np.zeros(n, bool)`` without reading its
mask.

Columns grow by appends without copying their rows (:func:`append_rows`):
every version of a column is a read-only prefix view of one
:class:`AppendBuffer` with spare capacity, and a commit writes its segment
into the tail when the version it extends is the longest one handed out.
"""

from __future__ import annotations

import copy
import enum
import threading
from collections.abc import Sequence

import numpy as np

from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache

#: Number of values per simulated disk page.
DEFAULT_PAGE_SIZE = 1024

#: Reads of more than this fraction of a column's rows are accounted as a
#: sequential scan instead of page-by-page random reads (Section 5).
SEQUENTIAL_SCAN_THRESHOLD = 0.2


def touched_pages(positions: np.ndarray, page_size: int, num_pages: int) -> np.ndarray:
    """Ascending ids of the pages a position set (any order, repeats) touches.

    The one definition shared by column read accounting and scan-pruning
    accounting: mark pages in a ``num_pages`` flag array instead of sorting.
    """
    touched = np.zeros(num_pages, dtype=np.bool_)
    touched[positions // page_size] = True
    return np.flatnonzero(touched)


class AppendBuffer:
    """Capacity shared by every version of one growing array.

    ``array[:claimed]`` holds the rows of the longest version handed out;
    each version is a read-only prefix view of ``array``.  The growth state
    is never serialized: a pickled or deep-copied holder restores it as
    ``None``, ships only its own rows, and copies on its next append.
    """

    __slots__ = ("array", "claimed", "lock")

    def __init__(self, array: np.ndarray, claimed: int) -> None:
        self.array = array
        self.claimed = claimed
        self.lock = threading.Lock()

    def __reduce__(self):
        return (_no_buffer, ())


def _no_buffer() -> None:
    return None


def append_rows(
    version: np.ndarray,
    segment: np.ndarray,
    buffer: AppendBuffer | None,
    lookup: np.ndarray | None = None,
) -> tuple[np.ndarray, AppendBuffer]:
    """``version`` followed by ``segment`` as a read-only view, and its buffer.

    When ``version`` is ``buffer``'s tail (its length is the claimed length)
    and the capacity suffices, the segment is written into the tail and
    claimed, under the buffer's lock — two branches extending one version
    never both write it.  Otherwise (``buffer`` is ``None``, too small, or
    already extended past ``version``) the rows are copied into a new buffer
    with ``max(m, n // 16)`` rows of headroom.  Either way ``version`` and
    every earlier view keep reading exactly their own rows.

    A caller that changes old rows takes the copy branch (``buffer=None``):
    a code remap passes ``lookup``, and the copied rows are
    ``lookup[version]`` (``-1`` reads the last entry), gathered straight
    into the new buffer; a delete sets its positions in the new buffer's
    ``array`` before it hands the view out.
    """
    n, m = version.shape[0], segment.shape[0]
    if buffer is not None and lookup is None:
        with buffer.lock:
            if buffer.claimed == n and buffer.array.shape[0] >= n + m:
                buffer.array[n : n + m] = segment
                buffer.claimed = n + m
                return _read_only(buffer.array[: n + m]), buffer
    dtype = version.dtype if lookup is None else lookup.dtype
    array = np.empty(n + m + max(m, n // 16), dtype=dtype)
    if lookup is None:
        array[:n] = version
    else:
        np.take(lookup, version, out=array[:n], mode="wrap")
    array[n : n + m] = segment
    return _read_only(array[: n + m]), AppendBuffer(array, n + m)


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


#: Integer data are handled by offset — flag / rank / first-row tables over
#: the value span instead of a sort — when the span is at most this many
#: times the row count (distinct counting, output-shaping factorization).
DENSE_SPAN_FACTOR = 8


def value_presence(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Offset view of non-empty ``int`` / ``bool`` data with a narrow span.

    Returns ``(offsets, present, low)``: ``offsets = values - low`` and
    ``present[o]`` is True iff the value ``low + o`` occurs.  ``None`` for
    empty data, any other dtype, or a span above
    :data:`DENSE_SPAN_FACTOR` x rows.
    """
    if values.size == 0 or values.dtype.kind not in "iub":
        return None
    if values.dtype.kind == "b":
        values = values.view(np.uint8)
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span > DENSE_SPAN_FACTOR * values.size:
        return None
    offsets = values - low
    present = np.zeros(span, dtype=np.bool_)
    present[offsets] = True
    return offsets, present, low


def count_distinct(values: np.ndarray) -> int:
    """``len(np.unique(values))`` of column data, never hashing integers.

    ``int64`` / ``bool`` data mark a flag array over the value span
    (:func:`value_presence`) or sort and count value changes — a small
    fraction of NumPy's hash-based integer ``np.unique``; ``float64`` (NaNs
    collapse to one value) and ``object`` data keep ``np.unique``.
    """
    if values.size == 0:
        return 0
    if values.dtype.kind not in "iub":
        return int(len(np.unique(values)))
    presence = value_presence(values)
    if presence is not None:
        return int(np.count_nonzero(presence[1]))
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def capped_by_span(distinct: int, bounds: tuple | None) -> int:
    """A distinct-count estimate capped at the span of integer/boolean ``bounds``.

    Values in ``[low, high]`` take at most ``high - low + 1`` distinct
    integers, so an append-merged estimate (old count plus the appended
    segment's, which counts every repeat again) stays inside the domain it
    was drawn from.  Other bounds, or none, leave ``distinct`` unchanged.
    """
    if bounds is None or not all(
        isinstance(value, (int, np.integer, np.bool_)) for value in bounds
    ):
        return distinct
    return min(distinct, int(bounds[1]) - int(bounds[0]) + 1)


class ColumnType(enum.Enum):
    """Supported column value types."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype used to store values of this type."""
        mapping = {
            ColumnType.INT: np.dtype(np.int64),
            ColumnType.FLOAT: np.dtype(np.float64),
            ColumnType.STRING: np.dtype(object),
            ColumnType.BOOL: np.dtype(np.bool_),
        }
        return mapping[self]


def _infer_type(values: Sequence) -> ColumnType:
    """Infer a column type from a sample of Python values."""
    for value in values:
        if value is None:
            continue
        if isinstance(value, (bool, np.bool_)):
            return ColumnType.BOOL
        if isinstance(value, (int, np.integer)):
            return ColumnType.INT
        if isinstance(value, (float, np.floating)):
            return ColumnType.FLOAT
        if isinstance(value, str):
            return ColumnType.STRING
        raise TypeError(f"unsupported column value: {value!r}")
    return ColumnType.STRING


class Column:
    """A single named, typed column of values.

    Args:
        name: column name (unqualified).
        values: the column data; NULLs may be expressed as ``None`` entries
            (for object columns) or via an explicit ``null_mask``.
        ctype: value type; inferred from the data when omitted.
        null_mask: boolean array marking NULL positions.
        page_size: number of values per simulated disk page.
    """

    def __init__(
        self,
        name: str,
        values: Sequence | np.ndarray,
        ctype: ColumnType | None = None,
        null_mask: np.ndarray | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.name = name
        self.page_size = page_size

        values_list = list(values) if not isinstance(values, np.ndarray) else values
        if ctype is None:
            sample = values_list if not isinstance(values_list, np.ndarray) else values_list[:64]
            ctype = _infer_type(list(sample))
        self.ctype = ctype

        if not isinstance(values_list, np.ndarray):
            inferred_nulls = np.zeros(len(values_list), dtype=np.bool_)
            cleaned = []
            for i, value in enumerate(values_list):
                if value is None:
                    inferred_nulls[i] = True
                    cleaned.append(self._null_placeholder())
                else:
                    cleaned.append(value)
            data = np.array(cleaned, dtype=ctype.numpy_dtype)
        elif values_list.dtype == object:
            # ``None`` cells of an object array are NULLs, as in a list.
            inferred_nulls = np.equal(values_list, None)
            if inferred_nulls.any():
                values_list = values_list.copy()
                values_list[inferred_nulls] = self._null_placeholder()
            data = values_list.astype(ctype.numpy_dtype, copy=False)
        else:
            inferred_nulls = np.zeros(len(values_list), dtype=np.bool_)
            data = values_list.astype(ctype.numpy_dtype, copy=False)

        if null_mask is not None:
            null_mask = np.asarray(null_mask, dtype=np.bool_)
            if null_mask.shape[0] != data.shape[0]:
                raise ValueError("null_mask length does not match values length")
            inferred_nulls |= null_mask
        self._adopt(data, inferred_nulls, bool(inferred_nulls.any()))

    def _adopt(
        self,
        data: np.ndarray,
        nulls: np.ndarray,
        has_nulls: bool,
        data_buffer: AppendBuffer | None = None,
        nulls_buffer: AppendBuffer | None = None,
    ) -> None:
        """Take ``data`` / ``nulls`` (and their growth buffers) as they are."""
        self._data = data
        self._nulls = nulls
        self._has_nulls = has_nulls
        self._data_buffer = data_buffer
        self._nulls_buffer = nulls_buffer
        # Lazily computed statistics.  Columns are immutable (table mutation
        # means replacing the whole Column via Catalog.replace), so the
        # caches never need invalidating — a new Column starts empty.  The
        # on-disk loader seeds them from persisted metadata so a loaded
        # catalog plans without recomputing (see repro.storage.disk).
        self._distinct_count: int | None = None
        self._min_max: tuple | None = None
        self._min_max_known = False

    def appended(self, segment: "Column") -> "Column":
        """This column followed by ``segment``'s rows, as a new version.

        Values and NULL mask grow through :func:`append_rows`: no row of
        ``self`` is copied when ``self`` is its buffers' tail, and the NULL
        mask is adopted without a re-scan.  ``self`` is not changed; the
        new column starts with empty statistic caches.
        """
        data, data_buffer = append_rows(self._data, segment.data, self._data_buffer)
        nulls, nulls_buffer = append_rows(
            self._nulls, segment.null_mask, self._nulls_buffer
        )
        extended = copy.copy(self)  # name, type and page size; the rest is replaced
        extended._adopt(
            data, nulls, self._has_nulls or segment.has_nulls(), data_buffer, nulls_buffer
        )
        return extended

    def _null_placeholder(self):
        """Placeholder stored for NULL cells (never observed by callers)."""
        if self.ctype is ColumnType.STRING:
            return ""
        if self.ctype is ColumnType.FLOAT:
            return float("nan")
        if self.ctype is ColumnType.BOOL:
            return False
        return 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._data.shape[0])

    @property
    def num_pages(self) -> int:
        """Number of simulated disk pages occupied by the column."""
        return -(-len(self) // self.page_size) if len(self) else 0

    @property
    def data(self) -> np.ndarray:
        """Raw value array (NULL positions hold placeholders)."""
        return self._data

    @property
    def null_mask(self) -> np.ndarray:
        """Boolean array marking NULL positions."""
        return self._nulls

    def has_nulls(self) -> bool:
        """Whether any cell is NULL (known from construction)."""
        return self._has_nulls

    def distinct_count(self) -> int:
        """Number of distinct non-NULL values (computed once, then cached).

        Statistics collection asks for it on every stats build, so the
        result of :func:`count_distinct` is memoized on the (immutable)
        column.
        """
        if self._distinct_count is None:
            self._distinct_count = count_distinct(self._data[~self._nulls])
        return self._distinct_count

    def min_max(self) -> tuple | None:
        """(min, max) of non-NULL values, or None for an all-NULL column.

        Cached like :meth:`distinct_count` (the scan is O(n)).
        """
        if not self._min_max_known:
            valid = self._data[~self._nulls]
            self._min_max = (valid.min(), valid.max()) if valid.size else None
            self._min_max_known = True
        return self._min_max

    def cached_statistics(self) -> tuple[int | None, tuple | None, bool]:
        """``(distinct_count, min_max, min_max_known)`` without computing.

        The incremental-maintenance path (:mod:`repro.mutation`) reads the
        memoized statistics of the columns it is about to extend; ``None`` /
        ``False`` entries mean "never computed" and the caller falls back to
        lazy recomputation on the new column.
        """
        return self._distinct_count, self._min_max, self._min_max_known

    def seed_statistics(
        self,
        distinct_count: int | None = None,
        min_max: tuple | None = None,
        min_max_known: bool = False,
    ) -> None:
        """Pre-populate the statistic caches from persisted metadata.

        Used by :func:`repro.storage.disk.load_catalog` so a freshly loaded
        catalog plans identically to the in-memory one it was saved from
        without recomputing statistics on the first query.  Pass
        ``min_max_known=True`` to seed ``min_max`` (``None`` then means "the
        column is all-NULL", not "unknown").
        """
        if distinct_count is not None:
            self._distinct_count = int(distinct_count)
        if min_max_known:
            self._min_max = min_max
            self._min_max_known = True

    # ------------------------------------------------------------------ #
    # Simulated reads
    # ------------------------------------------------------------------ #
    def read_at(
        self,
        positions: np.ndarray | Sequence[int],
        cache: LFUPageCache | None = None,
        iostats: IOStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read the values at explicit row positions (possibly repeated).

        Returns ``(values, nulls)`` in request order.  ``values`` is a
        read-only view of the column when the positions are one contiguous
        run over more than :data:`SEQUENTIAL_SCAN_THRESHOLD` of the rows, a
        fresh gather otherwise; ``nulls`` is always fresh and writable.
        """
        positions = np.asarray(positions, dtype=np.int64)
        ascending = self._ascending_scan(positions)
        self._account_positions(positions, cache, iostats, ascending)
        if ascending and positions[-1] - positions[0] == positions.size - 1:
            run = slice(int(positions[0]), int(positions[-1]) + 1)
            values = self._data[run]
            values.flags.writeable = False
            nulls = self._nulls[run].copy() if self._has_nulls else None
        else:
            values = self._data[positions]
            nulls = self._nulls[positions] if self._has_nulls else None
        if nulls is None:
            nulls = np.zeros(positions.size, dtype=np.bool_)
        return values, nulls

    def account_read(
        self,
        positions: np.ndarray | Sequence[int],
        cache: LFUPageCache | None = None,
        iostats: IOStats | None = None,
    ) -> None:
        """Account the page traffic of :meth:`read_at` without materializing.

        Used by the kernel layer when a dictionary sidecar supplies the cell
        values as integer codes: the codes live on the same simulated pages
        as the values, so the traffic is identical to a ``read_at`` of the
        same positions — only the Python-level value materialization is
        skipped.  A read with no ``iostats`` is not accounted.
        """
        if iostats is None:
            return
        positions = np.asarray(positions, dtype=np.int64)
        self._account_positions(positions, cache, iostats, self._ascending_scan(positions))

    def _ascending_scan(self, positions: np.ndarray) -> bool:
        """Whether a read is sequential by its raw count and strictly ascending.

        The one look at a read's positions.  Only a read of more than
        :data:`SEQUENTIAL_SCAN_THRESHOLD` of the rows is looked at; strictly
        ascending in-range positions are distinct, so their raw count is
        their distinct count and the read is a sequential scan.
        """
        if len(self) == 0 or positions.size / len(self) <= SEQUENTIAL_SCAN_THRESHOLD:
            return False
        if positions[0] < 0 or positions[-1] >= len(self):
            return False
        return bool(np.all(positions[1:] > positions[:-1]))

    def _account_positions(
        self,
        positions: np.ndarray,
        cache: LFUPageCache | None,
        iostats: IOStats | None,
        ascending: bool,
    ) -> None:
        """Account a read of ``positions`` (any order, possibly repeated).

        Selectivity is over *distinct* positions, but those are only counted
        (one boolean scatter) when the raw count already exceeds the
        threshold — below it the distinct count cannot exceed it either —
        and the positions are not ``ascending`` (:meth:`_ascending_scan`),
        which already makes the read sequential.  No ``iostats``, no
        accounting.
        """
        if iostats is None:
            return
        iostats.record_values(int(positions.size))
        if len(self) == 0 or positions.size == 0:
            return
        if ascending:
            iostats.record_sequential_scan(self.num_pages)
            return
        if positions.size / len(self) > SEQUENTIAL_SCAN_THRESHOLD:
            seen = np.zeros(len(self), dtype=np.bool_)
            seen[positions] = True
            if np.count_nonzero(seen) / len(self) > SEQUENTIAL_SCAN_THRESHOLD:
                iostats.record_sequential_scan(self.num_pages)
                return
        iostats.record_selective_read()
        pages = touched_pages(positions, self.page_size, self.num_pages)
        if cache is None:
            iostats.record_pages(misses=int(pages.size), hits=0)
            return
        misses, hits = cache.access_many((self.name, page) for page in pages.tolist())
        iostats.record_pages(misses=misses, hits=hits)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def values_list(self) -> list:
        """All values as a Python list with ``None`` for NULLs."""
        out: list = self._data.tolist()
        for position in np.flatnonzero(self._nulls):
            out[int(position)] = None
        return out

    def __repr__(self) -> str:
        return f"Column({self.name!r}, type={self.ctype.value}, rows={len(self)})"

