"""Dictionary encoding of low-cardinality columns.

A :class:`DictionaryEncoding` replaces a column's values with small integer
codes into a sorted dictionary of its distinct non-NULL values.  It is the
substrate of the bitmap index (:mod:`repro.access.indexes`) and of predicate
evaluation on codes (:mod:`repro.kernels.dictionary`), which share one
encoding per column (:func:`table_dictionary`): grouping row
positions by code is a single stable argsort over the codes, and range
predicates reduce to a binary search over the (sorted) dictionary.  (Note
that :attr:`DictionaryEncoding.num_values` excludes float NaN cells, so it
can undercount :meth:`~repro.storage.column.Column.distinct_count` — the
two are deliberately not shared.)
"""

from __future__ import annotations

import numpy as np

from repro.storage.column import Column, ColumnType

#: Code stored for NULL cells (no dictionary entry).
NULL_CODE = -1


class DictionaryEncoding:
    """Sorted-dictionary encoding of one column.

    Attributes:
        values: the sorted distinct non-NULL values (the dictionary).
        codes: int32 array mapping each row to its dictionary slot, with
            :data:`NULL_CODE` for NULL cells.
    """

    __slots__ = ("values", "codes")

    def __init__(self, values: np.ndarray, codes: np.ndarray) -> None:
        self.values = values
        self.codes = codes

    @classmethod
    def encode(cls, column: Column) -> "DictionaryEncoding":
        """Encode ``column`` (NaN float cells are treated like NULLs)."""
        return cls(
            np.empty(0, dtype=column.data.dtype), np.empty(0, dtype=np.int32)
        ).extended(column, 0)

    def extended(self, column: Column, old_num_rows: int) -> "DictionaryEncoding":
        """The encoding of ``column`` after rows were appended at ``old_num_rows``.

        Only the appended segment is uniqued; existing codes are remapped
        through a vectorized gather when the segment introduced new distinct
        values — the full-column value sort never runs again, and the result
        is array-equal to a fresh :meth:`encode`.  ``self`` is not mutated.
        """
        segment = column.data[old_num_rows:]
        excluded = column.null_mask[old_num_rows:].copy()
        if column.ctype is ColumnType.FLOAT:
            excluded |= np.isnan(segment.astype(np.float64))
        values, old_codes = self.values, self.codes
        seg_codes = np.full(segment.shape[0], NULL_CODE, dtype=np.int32)
        valid = ~excluded
        if valid.any():
            seg_uniques, seg_inverse = np.unique(segment[valid], return_inverse=True)
            slots = np.searchsorted(values, seg_uniques)
            known = slots < values.size
            known[known] = values[slots[known]] == seg_uniques[known]
            if not known.all():
                values = np.insert(values, slots[~known], seg_uniques[~known])
                # Old code c moves up by the number of new values sorting
                # before it; the trailing slot keeps NULL_CODE (-1) as it is.
                old = np.arange(self.num_values)
                remap = old + np.searchsorted(slots[~known], old, side="right")
                old_codes = np.append(remap, NULL_CODE).astype(np.int32)[old_codes]
                slots = np.searchsorted(values, seg_uniques)
            seg_codes[valid] = slots.astype(np.int32)[seg_inverse]
        return DictionaryEncoding(values, np.concatenate([old_codes, seg_codes]))

    def compacted(self, live: np.ndarray) -> "DictionaryEncoding":
        """The encoding of the rows at positions ``live``, renumbered in order.

        Compaction's twin of :meth:`extended`: gather the surviving codes,
        ``bincount`` which values no survivor holds, shift the other codes
        down past them — no value is compared, and the result is array-equal
        to a fresh :meth:`encode` of the survivors.  ``self`` is not mutated.
        """
        codes = self.codes[live]
        kept = np.bincount(codes + 1, minlength=self.num_values + 1)[1:] > 0
        if kept.all():
            return DictionaryEncoding(self.values, codes)
        # Old code c moves down by the number of vanished values before it;
        # the trailing slot keeps NULL_CODE (-1) as it is.
        remap = np.append(np.cumsum(kept) - 1, NULL_CODE).astype(np.int32)
        return DictionaryEncoding(self.values[kept], remap[codes])

    @property
    def num_values(self) -> int:
        """Number of dictionary entries (distinct non-NULL values)."""
        return int(self.values.shape[0])

    @property
    def num_rows(self) -> int:
        """Number of encoded rows."""
        return int(self.codes.shape[0])

    def grouped_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, boundaries)`` grouping row positions by code.

        ``order`` lists row positions sorted by code (NULL rows first);
        ``boundaries[c] : boundaries[c + 1]`` slices the positions of code
        ``c`` out of ``order``.
        """
        order = np.argsort(self.codes, kind="stable").astype(np.int64)
        boundaries = np.searchsorted(
            self.codes[order], np.arange(self.num_values + 1, dtype=np.int32)
        )
        return order, boundaries

    def __repr__(self) -> str:
        return f"DictionaryEncoding(values={self.num_values}, rows={self.num_rows})"


#: A string column only gets a predicate/join dictionary when its distinct
#: count is at most this fraction of its row count — near-unique columns
#: (titles, names at scale) would pay the encode cost without ever reusing
#: a code, so they stay on the decoded-value path.
DICTIONARY_MAX_DISTINCT_FRACTION = 0.5


def _worth_encoding(column: Column) -> bool:
    """Whether ``column`` gets a predicate/join dictionary at all."""
    return bool(
        column.ctype is ColumnType.STRING
        and len(column)
        and column.distinct_count()
        <= max(1, int(len(column) * DICTIONARY_MAX_DISTINCT_FRACTION))
    )


def table_dictionary(table, column_name: str) -> DictionaryEncoding | None:
    """Cached dictionary encoding of a table's string column.

    Returns ``None`` (also cached) when the column does not exist, is not a
    string column, is empty, or is too close to unique for encoding to pay
    off.  The cache lives on the table instance; tables are immutable —
    mutation replaces the whole :class:`~repro.storage.table.Table` and
    :func:`carry_dictionaries` seeds the new instance's cache — so the cache
    never needs invalidating and a bitmap index on the column shares the
    same object (:mod:`repro.access.manager`).
    """
    cache = table.__dict__.get("_dictionary_cache")
    if cache is None:
        cache = {}
        table._dictionary_cache = cache
    if column_name in cache:
        return cache[column_name]
    encoding = None
    if column_name in table and _worth_encoding(table.column(column_name)):
        column = table.column(column_name)
        encoding = DictionaryEncoding.encode(column)
        # Exact, where an append-merged seed may have been an upper bound.
        column.seed_statistics(distinct_count=encoding.num_values)
    cache[column_name] = encoding
    return encoding


def cached_dictionary(table, column_name: str) -> DictionaryEncoding | None:
    """``table``'s dictionary of ``column_name`` if one is cached; never encodes."""
    return table.__dict__.get("_dictionary_cache", {}).get(column_name)


def adopt_dictionary(table, column_name: str, encoding: DictionaryEncoding) -> None:
    """Cache an encoding of ``table.column_name`` that something else built.

    A bitmap index loaded from its sidecar brings one: the column is never
    encoded a second time, and its distinct count is exact from the start.
    Ignored when the table already has its own, or would not get one.
    """
    cache = table.__dict__.setdefault("_dictionary_cache", {})
    column = table.column(column_name)
    if cache.get(column_name) is None and column.ctype is ColumnType.STRING:
        _keep_if_worth(cache, column, encoding)


def _keep_if_worth(cache: dict, column: Column, encoding: DictionaryEncoding) -> None:
    """Record ``column``'s exact distinct count; cache ``encoding`` if it merits one."""
    column.seed_statistics(distinct_count=encoding.num_values)
    if _worth_encoding(column):
        cache[column.name] = encoding


def carry_dictionaries(old_table, new_table, live: np.ndarray | None = None) -> None:
    """Seed ``new_table``'s dictionary cache from its previous version's.

    With ``live=None``, ``new_table`` is ``old_table`` after one commit
    (rows appended at ``old_table.num_rows`` and/or logically deleted):
    appended columns extend their encoding by the segment, delete-only
    commits share the same object.  With ``live`` (ascending positions) it
    holds exactly those rows of ``old_table`` — a compaction — and every
    encoding is :meth:`~DictionaryEncoding.compacted` through it.  The new
    column's distinct count is seeded from the carried encoding (exact, so
    it cannot drift); ``None`` entries and columns that became ineligible
    are left for :func:`table_dictionary` to decide lazily.  The old cache
    is read from a snapshot (readers fill it concurrently) and never
    mutated: pinned snapshots keep reading theirs.
    """
    carried = {}
    for name, encoding in dict(old_table.__dict__.get("_dictionary_cache", ())).items():
        if encoding is None:
            continue
        column = new_table.column(name)
        if live is not None:
            encoding = encoding.compacted(live)
        elif len(column) > old_table.num_rows:
            encoding = encoding.extended(column, old_table.num_rows)
        _keep_if_worth(carried, column, encoding)
    new_table._dictionary_cache = carried
