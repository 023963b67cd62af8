"""Tagged relations.

Basilisk is column-oriented: intermediate relations hold *tuples of row
indices* into the base tables rather than values, and the actual values are
reconstructed lazily by index lookups when an operator needs them.  This
module keeps that, and deviates from Basilisk in how slices are stored.

Basilisk stores the relational slices of a tagged relation as a hash table of
bitmaps keyed by tag, and its filters rewrite bitmaps without removing rows
(Sections 2.5.1–2.5.2), so a relation also carries every row that some
earlier filter dropped.  Here a relation holds *live rows only*: its slices
are a tuple of tags plus one slice id per row, and every operator compacts
its output to the rows it keeps, in ascending order.  Measured over one warm
pass of the 33 JOB-style queries, the dead-row rule left 56 % of the rows in
filter outputs dead (740 202 live of 1 687 438) and 31 % of the rows read by
joins (1 657 460 live of 2 408 932); on the 200k-row fact scans, 20 % of the
filter rows and 41 % of the join input rows.  With live rows only, the
filter, the join and the projection route rows with one step — a lookup
table indexed by slice id — and slices are mutually exclusive by
construction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.tags import Tag
from repro.storage.table import Table


class TaggedRelation:
    """An index relation of live rows plus the tag of each row.

    Args:
        tables: mapping alias -> backing base table for every alias that has
            been joined into this relation.
        indices: mapping alias -> int64 row-index array; all arrays share the
            same length, the number of rows (every one of them live).
        tags: the tags of the relation's slices, each holding at least one
            row (a relation without rows has none).
        slice_ids: per row, the index into ``tags`` of the slice holding it;
            ``None`` when there is exactly one tag, which then holds every row.
    """

    def __init__(
        self,
        tables: Mapping[str, Table],
        indices: Mapping[str, np.ndarray],
        tags: Sequence[Tag],
        slice_ids: np.ndarray | None = None,
    ) -> None:
        self.tables = dict(tables)
        self.indices = {alias: np.asarray(idx, dtype=np.int64) for alias, idx in indices.items()}
        lengths = {idx.shape[0] for idx in self.indices.values()}
        if len(lengths) > 1:
            raise ValueError(f"index arrays have differing lengths: {lengths}")
        self.num_rows: int = lengths.pop() if lengths else 0
        self.tags: tuple[Tag, ...] = tuple(tags) if self.num_rows else ()
        if len(self.tags) <= 1:
            slice_ids = None
        elif slice_ids is None:
            raise ValueError(f"{len(self.tags)} tags need a slice id per row")
        elif slice_ids.shape[0] != self.num_rows:
            raise ValueError(
                f"slice ids cover {slice_ids.shape[0]} rows, the relation has {self.num_rows}"
            )
        self.slice_ids = slice_ids

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_base_table(cls, alias: str, table: Table) -> "TaggedRelation":
        """Base tagged relation: all rows in one slice under the empty tag."""
        return cls.from_scan(alias, table, np.arange(table.num_rows, dtype=np.int64))

    @classmethod
    def from_scan(cls, alias: str, table: Table, positions: np.ndarray) -> "TaggedRelation":
        """The relation a scan emits: ``positions`` in one slice under the empty tag."""
        return cls({alias: table}, {alias: positions}, (Tag.empty(),))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def aliases(self) -> list[str]:
        """Aliases joined into this relation."""
        return list(self.indices)

    def slice_positions(self, tag: Tag) -> np.ndarray:
        """Ascending positions of the rows in the slice with ``tag`` (empty if absent)."""
        if tag not in self.tags:
            return np.empty(0, dtype=np.int64)
        if self.slice_ids is None:
            return np.arange(self.num_rows, dtype=np.int64)
        return np.flatnonzero(self.slice_ids == self.tags.index(tag))

    def __repr__(self) -> str:
        return (
            f"TaggedRelation(aliases={self.aliases}, rows={self.num_rows}, "
            f"slices={len(self.tags)})"
        )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def row_keys(self) -> np.ndarray:
        """A 2-D array (rows x aliases) identifying each tuple by base indices.

        Columns are ordered by sorted alias name, so relations over the same
        alias set produce comparable keys (the union root deduplicates on them).
        """
        aliases = sorted(self.indices)
        if not aliases:
            return np.empty((0, 0), dtype=np.int64)
        return np.stack([self.indices[alias] for alias in aliases], axis=1)

    def materialize_rows(self, tag: Tag | None = None) -> list[dict[str, int]]:
        """Row-index tuples of one slice (or of every row).

        Intended for tests and debugging; returns one dict per tuple mapping
        alias -> base-table row index.
        """
        positions = range(self.num_rows) if tag is None else self.slice_positions(tag).tolist()
        return [
            {alias: int(self.indices[alias][position]) for alias in self.indices}
            for position in positions
        ]
