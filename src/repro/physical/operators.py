"""The scan: the one physical operator that belongs to no execution model.

Filters, joins and roots are the model classes themselves
(:mod:`repro.core.operators` for tagged and traditional plans, and BDisj's
union root in :mod:`repro.baseline.operators`).  The scan below them all is
shared: it is where a :class:`~repro.storage.table.TablePartition` restricts
a tree to one morsel, where access-path candidates prune pages, and where
logically deleted rows are dropped.  It emits one one-slice
:class:`~repro.core.tagged_relation.TaggedRelation` under the empty tag.
"""

from __future__ import annotations

import numpy as np

from repro.core.tagged_relation import TaggedRelation
from repro.engine.metrics import ExecContext
from repro.physical.base import PhysicalOperator
from repro.storage.column import touched_pages
from repro.storage.table import Table, TablePartition, owned_page_range


def _scan_indices(table: Table, partition: TablePartition | None) -> np.ndarray:
    if partition is None:
        return np.arange(table.num_rows, dtype=np.int64)
    return partition.positions()


def candidates_in_range(candidates: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The sorted ``candidates`` inside the row range ``[start, stop)`` (a view)."""
    first, end = np.searchsorted(candidates, (start, stop))
    return candidates[first:end]


class ScanPhysical(PhysicalOperator):
    """Base-table scan emitting one single-slice :class:`TaggedRelation` over
    the (partitioned) row range.

    ``candidates`` optionally restricts the scan to an access-path candidate
    set (zone-map / index pruning, see :mod:`repro.access`): sorted unique
    row positions, of which only those inside the scan's row range are
    emitted, so pages holding no candidate row are never touched by
    downstream reads.  The set is a sound superset of the rows satisfying
    the query's implied predicate for this alias, which keeps results
    byte-identical to an unpruned scan.
    """

    label = "ScanPhysical"

    def __init__(
        self,
        alias: str,
        table: Table,
        partition: TablePartition | None = None,
        node_id: int | None = None,
        candidates: np.ndarray | None = None,
    ) -> None:
        super().__init__(node_id=node_id)
        if candidates is not None and candidates.size and candidates[-1] >= table.num_rows:
            raise ValueError(
                f"candidate row {int(candidates[-1])} is out of range for table "
                f"{table.name!r} with {table.num_rows} rows"
            )
        self.alias = alias
        self.table = table
        self.partition = partition
        self.candidates = candidates

    def _pruned_indices(self, context: ExecContext) -> np.ndarray:
        """Candidate row positions of the scan range, with pruning accounted.

        Page accounting attributes each page to the range containing its
        *first* row, so per-morsel counts sum exactly to the table's page
        count — a page straddling a partition boundary is never counted
        twice (``partitions=1`` is exact; boundary pages kept by a
        neighboring morsel may still be reported pruned by their owner).
        """
        if self.partition is None:
            start, stop = 0, self.table.num_rows
        else:
            start, stop = self.partition.start, self.partition.stop
        if self.candidates is None:
            # Logically deleted rows are filtered here, at the bottom of
            # every execution model — pruning and access paths may be off,
            # but a deleted row must never surface.
            return self.table.live_positions_in(_scan_indices(self.table, self.partition))
        indices = self.table.live_positions_in(
            candidates_in_range(self.candidates, start, stop)
        )
        page_size = self.table.page_size
        first_page, end_page = owned_page_range(start, stop, page_size)
        if end_page > first_page:
            pages = touched_pages(indices, page_size, self.table.num_pages)
            pages_kept = int(((pages >= first_page) & (pages < end_page)).sum())
            context.metrics.record_scan_pruning(
                self.node_id, end_page - first_page, end_page - first_page - pages_kept
            )
        return indices

    def _run(self, context: ExecContext) -> TaggedRelation:
        indices = self._pruned_indices(context)
        context.metrics.operators_executed += 1
        self.record_rows(context, int(indices.size), int(indices.size))
        return TaggedRelation.from_scan(self.alias, self.table, indices)
