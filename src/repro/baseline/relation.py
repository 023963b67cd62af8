"""Plain (untagged) index relations used by the traditional execution model.

Like Basilisk's intermediate relations, rows are tuples of indices into the
base tables.  Unlike tagged relations there are no slices: filters compact
the index arrays, and every operator processes the whole relation.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.storage.table import Table


class Relation:
    """An untagged index relation."""

    def __init__(
        self,
        tables: Mapping[str, Table],
        indices: Mapping[str, np.ndarray],
    ) -> None:
        self.tables = dict(tables)
        self.indices = {alias: np.asarray(idx, dtype=np.int64) for alias, idx in indices.items()}
        lengths = {idx.shape[0] for idx in self.indices.values()}
        if len(lengths) > 1:
            raise ValueError(f"index arrays have differing lengths: {lengths}")
        self._num_rows = lengths.pop() if lengths else 0

    @classmethod
    def from_base_table(cls, alias: str, table: Table) -> "Relation":
        """Relation over every row of a base table."""
        return cls({alias: table}, {alias: np.arange(table.num_rows, dtype=np.int64)})

    @classmethod
    def from_scan(cls, alias: str, table: Table, positions: np.ndarray, metrics) -> "Relation":
        """The batch a scan emits: the rows of ``table`` at ``positions``."""
        metrics.tuples_materialized += int(positions.size)
        return cls({alias: table}, {alias: positions})

    @classmethod
    def merge(cls, batches: list["Relation"]) -> "Relation":
        """Concatenate relations over the same alias set, in order."""
        if len(batches) == 1:
            return batches[0]
        tables = {}
        for batch in batches:
            tables.update(batch.tables)
        indices = {
            alias: np.concatenate([batch.indices[alias] for batch in batches])
            for alias in batches[0].indices
        }
        return cls(tables, indices)

    @property
    def num_rows(self) -> int:
        """Number of tuples in the relation."""
        return self._num_rows

    @property
    def live_rows(self) -> int:
        """Live tuples (every row of a plain relation is live)."""
        return self._num_rows

    @property
    def aliases(self) -> list[str]:
        """Aliases joined into this relation."""
        return list(self.indices)

    def take(self, positions: np.ndarray) -> "Relation":
        """A new relation containing only the rows at ``positions``."""
        return Relation(
            self.tables,
            {alias: idx[positions] for alias, idx in self.indices.items()},
        )

    def row_keys(self) -> np.ndarray:
        """A 2-D array (rows x aliases) identifying each tuple by base indices.

        Used by the union operator to deduplicate tuples across subqueries.
        Columns are ordered by sorted alias name so relations with the same
        alias set produce comparable keys.
        """
        aliases = sorted(self.indices)
        if not aliases:
            return np.empty((0, 0), dtype=np.int64)
        return np.stack([self.indices[alias] for alias in aliases], axis=1)

    def __repr__(self) -> str:
        return f"Relation(aliases={self.aliases}, rows={self.num_rows})"
