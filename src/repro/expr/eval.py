"""Evaluation context for vectorized predicate evaluation.

Predicates are evaluated against a :class:`RowBatch`: a logical set of rows,
each of which may span several base tables (after joins).  The batch exposes,
for every referenced ``(table alias, column)`` pair, the column values and
NULL mask aligned with the batch's rows.  Basilisk keeps only row *indices*
in its intermediate relations and fetches values lazily (Section 2.5.1); the
row batch is where that lazy fetch happens, so I/O accounting flows through
the storage layer naturally.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache
from repro.storage.table import Table


class RowBatch:
    """A batch of logical rows used as predicate-evaluation input.

    Each logical row is described by one row index per table alias.  Columns
    are fetched lazily from the backing base tables and memoized per
    ``(alias, column)`` so a predicate referencing the same column twice only
    pays for one read.

    Args:
        tables: mapping of alias -> backing base :class:`Table`.
        indices: mapping of alias -> int64 array of row indices (all arrays
            must be the same length).  Aliases bound to ``None`` arrays are
            not usable in this batch.
        cache: optional page cache used for read accounting.
        iostats: optional I/O counter object.
    """

    def __init__(
        self,
        tables: Mapping[str, Table],
        indices: Mapping[str, np.ndarray],
        cache: LFUPageCache | None = None,
        iostats: IOStats | None = None,
    ) -> None:
        self._tables = dict(tables)
        self._indices = {alias: np.asarray(idx, dtype=np.int64) for alias, idx in indices.items()}
        lengths = {idx.shape[0] for idx in self._indices.values()}
        if len(lengths) > 1:
            raise ValueError(f"index arrays have differing lengths: {lengths}")
        self._num_rows = lengths.pop() if lengths else 0
        self._cache = cache
        self._iostats = iostats
        self._column_cache: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def num_rows(self) -> int:
        """Number of logical rows in the batch."""
        return self._num_rows

    @property
    def aliases(self) -> list[str]:
        """Table aliases addressable from this batch."""
        return list(self._indices)

    @property
    def cache(self) -> LFUPageCache | None:
        """Page cache used for read accounting (may be None)."""
        return self._cache

    @property
    def iostats(self) -> IOStats | None:
        """I/O counter object (may be None)."""
        return self._iostats

    def table(self, alias: str) -> Table | None:
        """Backing base table of ``alias``, or None when unbound."""
        return self._tables.get(alias)

    def restricted(self, rows: np.ndarray) -> "RestrictedBatch":
        """A view of this batch narrowed to ``rows`` (positions into it).

        Column reads still happen — and memoize, and account I/O — at this
        batch's full selection; the view merely slices them.  That is what
        keeps the fused kernels' I/O accounting identical to a full-width
        ``evaluate`` while their clause work shrinks with the alive set.
        Each slice is a second copy of the column, so a caller whose
        ``rows`` are the whole selection evaluates against this batch
        instead (:class:`~repro.kernels.dictionary.LeafEvaluator` does).
        """
        return RestrictedBatch(self, rows)

    def indices_for(self, alias: str) -> np.ndarray:
        """Row-index array for ``alias``."""
        try:
            return self._indices[alias]
        except KeyError:
            raise KeyError(
                f"alias {alias!r} is not part of this row batch; "
                f"available: {', '.join(self._indices)}"
            ) from None

    def column(self, alias: str, column_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, nulls)`` for a column, aligned with batch rows.

        Memoized per batch: callers must not write into either array —
        ``values`` may be a read-only view of the column itself.
        """
        key = (alias, column_name)
        if key in self._column_cache:
            return self._column_cache[key]
        if alias not in self._tables:
            raise KeyError(
                f"alias {alias!r} is not bound to a table; available: {', '.join(self._tables)}"
            )
        table = self._tables[alias]
        positions = self.indices_for(alias)
        values, nulls = table.read_column_at(
            column_name, positions, cache=self._cache, iostats=self._iostats
        )
        self._column_cache[key] = (values, nulls)
        return values, nulls

    @classmethod
    def for_base_table(
        cls,
        alias: str,
        table: Table,
        positions: np.ndarray | None = None,
        cache: LFUPageCache | None = None,
        iostats: IOStats | None = None,
    ) -> "RowBatch":
        """Build a batch over (a subset of) a single base table."""
        if positions is None:
            positions = np.arange(table.num_rows, dtype=np.int64)
        return cls({alias: table}, {alias: positions}, cache=cache, iostats=iostats)


class RestrictedBatch:
    """A row-subset view over a :class:`RowBatch`.

    Exposes the same evaluation surface (``num_rows`` / ``column`` /
    ``indices_for``) over a subset of the parent's rows, given as positions
    *into the parent batch*.  Column data comes from the parent's memoized
    full-selection reads and is sliced per call — the view itself never
    issues storage reads, so evaluating an expression against it is
    byte-identical to evaluating against the parent and slicing the result.
    Every ``column`` call gathers fresh values and NULL mask (the parent's
    values may be a read-only view of the column, see
    :meth:`repro.storage.column.Column.read_at`); for the whole selection
    that gather is pure waste, and whole-selection leaves skip the view.
    """

    __slots__ = ("_parent", "_rows", "num_rows")

    def __init__(self, parent: RowBatch, rows: np.ndarray) -> None:
        self._parent = parent
        self._rows = rows
        self.num_rows = int(rows.shape[0])

    @property
    def aliases(self) -> list[str]:
        """Table aliases addressable from this view."""
        return self._parent.aliases

    def indices_for(self, alias: str) -> np.ndarray:
        """Row-index array for ``alias``, narrowed to the view's rows."""
        return self._parent.indices_for(alias)[self._rows]

    def column(self, alias: str, column_name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(values, nulls)`` for the view's rows (sliced parent read)."""
        values, nulls = self._parent.column(alias, column_name)
        return values[self._rows], nulls[self._rows]
