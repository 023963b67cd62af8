"""Tagged relations.

Basilisk is column-oriented: intermediate relations hold *tuples of row
indices* into the base tables rather than values, and the relational slices
of a tagged relation are stored as a hash table of bitmaps keyed by tag
(Section 2.5.1).  Filters rewrite bitmaps rather than remove rows (except
the one-slice filter, whose dead rows are gathered away with :meth:`take`),
and the actual values are reconstructed lazily by index lookups when an
operator needs them.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.tags import Tag
from repro.storage.bitmap import Bitmap
from repro.storage.table import Table


class TaggedRelation:
    """An index relation plus tag -> bitmap relational slices.

    Args:
        tables: mapping alias -> backing base table for every alias that has
            been joined into this relation.
        indices: mapping alias -> int64 row-index array; all arrays share the
            same length (the number of physical rows kept in the relation,
            including rows no longer referenced by any slice).
        slices: mapping tag -> bitmap selecting the rows of that relational
            slice.  Slices must be mutually exclusive.
    """

    def __init__(
        self,
        tables: Mapping[str, Table],
        indices: Mapping[str, np.ndarray],
        slices: Mapping[Tag, Bitmap],
    ) -> None:
        self.tables = dict(tables)
        self.indices = {alias: np.asarray(idx, dtype=np.int64) for alias, idx in indices.items()}
        lengths = {idx.shape[0] for idx in self.indices.values()}
        if len(lengths) > 1:
            raise ValueError(f"index arrays have differing lengths: {lengths}")
        self._num_rows = lengths.pop() if lengths else 0
        self.slices: dict[Tag, Bitmap] = {}
        for tag, bitmap in slices.items():
            if bitmap.size != self._num_rows:
                raise ValueError(
                    f"slice bitmap size {bitmap.size} does not match relation rows {self._num_rows}"
                )
            if not bitmap.is_empty():
                self.slices[tag] = bitmap

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_base_table(cls, alias: str, table: Table) -> "TaggedRelation":
        """Base tagged relation: all rows in one slice under the empty tag."""
        indices = {alias: np.arange(table.num_rows, dtype=np.int64)}
        slices = {Tag.empty(): Bitmap.full(table.num_rows)}
        return cls({alias: table}, indices, slices)

    @classmethod
    def from_scan(
        cls, alias: str, table: Table, positions: np.ndarray, metrics
    ) -> "TaggedRelation":
        """The batch a scan emits: ``positions`` in one slice under the empty tag."""
        return cls(
            {alias: table}, {alias: positions}, {Tag.empty(): Bitmap.full(int(positions.size))}
        )

    @classmethod
    def merge(cls, batches: list["TaggedRelation"]) -> "TaggedRelation":
        """Concatenate tagged relations in order, offsetting slice bitmaps."""
        if len(batches) == 1:
            return batches[0]
        tables = {}
        for batch in batches:
            tables.update(batch.tables)
        indices = {
            alias: np.concatenate([batch.indices[alias] for batch in batches])
            for alias in batches[0].indices
        }
        total_rows = sum(batch.num_rows for batch in batches)
        tags = {tag for batch in batches for tag in batch.slices}
        if len(tags) == 1 and all(batch.live_rows == batch.num_rows for batch in batches):
            # One tag over every row (one-tag plans): stays full.
            return cls(tables, indices, {tags.pop(): Bitmap.full(total_rows)})
        masks: dict[Tag, np.ndarray] = {}
        offset = 0
        for batch in batches:
            for tag, bitmap in batch.slices.items():
                mask = masks.setdefault(tag, np.zeros(total_rows, dtype=np.bool_))
                mask[offset:offset + batch.num_rows] = bitmap.mask
            offset += batch.num_rows
        slices = {tag: Bitmap.from_mask(mask) for tag, mask in masks.items()}
        return cls(tables, indices, slices)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Physical rows in the index relation (including dropped rows)."""
        return self._num_rows

    @property
    def live_rows(self) -> int:
        """Live tuples: the rows some slice holds (dead rows may remain physically)."""
        return self.total_tuples()

    @property
    def aliases(self) -> list[str]:
        """Aliases joined into this relation."""
        return list(self.indices)

    def tags(self) -> list[Tag]:
        """Tags of the (non-empty) relational slices."""
        return list(self.slices)

    def slice_bitmap(self, tag: Tag) -> Bitmap:
        """Bitmap of the relational slice with ``tag`` (empty if absent)."""
        return self.slices.get(tag, Bitmap.empty(self._num_rows))

    def slice_cardinality(self, tag: Tag) -> int:
        """Number of tuples in the relational slice with ``tag``."""
        bitmap = self.slices.get(tag)
        return bitmap.count() if bitmap is not None else 0

    def active_bitmap(self) -> Bitmap:
        """Union of every slice's bitmap (the live rows of the relation)."""
        return Bitmap.union_all(self.slices.values(), size=self._num_rows)

    def total_tuples(self) -> int:
        """Total tuples across all relational slices."""
        return sum(bitmap.count() for bitmap in self.slices.values())

    def check_mutually_exclusive(self) -> bool:
        """Verify that no row belongs to more than one slice."""
        if not self.slices:
            return True
        counts = np.zeros(self._num_rows, dtype=np.int32)
        for bitmap in self.slices.values():
            counts += bitmap.mask.astype(np.int32)
        return bool((counts <= 1).all())

    def __repr__(self) -> str:
        return (
            f"TaggedRelation(aliases={self.aliases}, rows={self._num_rows}, "
            f"slices={len(self.slices)}, tuples={self.total_tuples()})"
        )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_slices(self, slices: Mapping[Tag, Bitmap]) -> "TaggedRelation":
        """A new tagged relation sharing this one's index columns."""
        return TaggedRelation(self.tables, self.indices, slices)

    def take(self, positions: np.ndarray, tag: Tag) -> "TaggedRelation":
        """A one-slice relation holding only the rows at ``positions``, under ``tag``."""
        indices = {alias: idx[positions] for alias, idx in self.indices.items()}
        return TaggedRelation(self.tables, indices, {tag: Bitmap.full(int(positions.size))})

    def row_keys(self) -> np.ndarray:
        """A 2-D array (live rows x aliases) identifying each live tuple by base indices.

        Columns are ordered by sorted alias name, so relations over the same
        alias set produce comparable keys (the union root deduplicates on them).
        """
        aliases = sorted(self.indices)
        if not aliases:
            return np.empty((0, 0), dtype=np.int64)
        keys = np.stack([self.indices[alias] for alias in aliases], axis=1)
        live = self.active_bitmap()
        return keys if live.count() == self._num_rows else keys[live.mask]

    def materialize_rows(self, tag: Tag | None = None) -> list[dict[str, int]]:
        """Row-index tuples of one slice (or of every live row).

        Intended for tests and debugging; returns one dict per tuple mapping
        alias -> base-table row index.
        """
        bitmap = self.active_bitmap() if tag is None else self.slice_bitmap(tag)
        positions = bitmap.positions()
        return [
            {alias: int(self.indices[alias][position]) for alias in self.indices}
            for position in positions
        ]
