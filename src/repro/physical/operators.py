"""Physical operators: the batched execution layer all three models share.

Each class here implements the :class:`~repro.physical.base.PhysicalOperator`
``open()/next_batch()/close()`` contract around one execution-model kernel
(the whole-relation operators of :mod:`repro.baseline.operators`,
:mod:`repro.core.operators` and :mod:`repro.bypass.operators`).  The layer
adds three things the bare kernels do not have:

* **a uniform shape** — every plan, whatever the model, compiles to one tree
  of physical operators rooted at an operator that emits
  :class:`~repro.engine.result.OutputColumns` batches;
* **partition awareness** — scans accept a
  :class:`~repro.storage.table.TablePartition` and emit only that row range,
  which is how the morsel driver parallelizes a plan;
* **streaming filters / probe sides** — filters and join probe inputs process
  one batch at a time, while join build sides and union/projection roots
  drain and merge their inputs (the kernels build one hash table per join).
"""

from __future__ import annotations

import numpy as np

from repro.baseline.operators import FilterOperator, HashJoinOperator, UnionOperator
from repro.baseline.relation import Relation
from repro.bypass.operators import (
    BypassFilterOperator,
    BypassJoinOperator,
    BypassProjectOperator,
)
from repro.bypass.streams import BypassStream, StreamSet
from repro.core.operators import (
    TaggedFilterOperator,
    TaggedJoinOperator,
    TaggedProjectOperator,
)
from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import ProjectionTagSet
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.engine.result import OutputColumns, materialize_output
from repro.physical.base import PhysicalOperator
from repro.physical.batches import merge_batches
from repro.storage.bitmap import Bitmap
from repro.storage.column import touched_pages
from repro.storage.table import Table, TablePartition, owned_page_range


def _scan_indices(table: Table, partition: TablePartition | None) -> np.ndarray:
    if partition is None:
        return np.arange(table.num_rows, dtype=np.int64)
    return partition.positions()


def live_rows(batch) -> int:
    """Live tuples in a batch, across the three batch representations.

    Tagged relations never physically drop rows, so their live count is the
    total over slice bitmaps; plain relations and bypass stream sets count
    materialized rows; the root's OutputColumns counts result rows.  Used by
    the per-operator actual-row counters behind ``--explain-analyze``.
    """
    if batch is None:
        return 0
    if isinstance(batch, TaggedRelation):
        return int(batch.total_tuples())
    if isinstance(batch, StreamSet):
        return int(sum(stream.num_rows for stream in batch))
    if isinstance(batch, OutputColumns):
        return int(batch.row_count)
    return int(batch.num_rows)


# --------------------------------------------------------------------------- #
# Scans
# --------------------------------------------------------------------------- #
class ScanPhysical(PhysicalOperator):
    """Base-table scan emitting one batch over the (partitioned) row range.

    ``kind`` selects the batch representation: ``"traditional"`` emits a
    plain :class:`Relation`, ``"tagged"`` a single-slice
    :class:`TaggedRelation`, ``"bypass"`` a single-stream :class:`StreamSet`.

    ``candidates`` optionally restricts the scan to an access-path candidate
    bitmap (zone-map / index pruning, see :mod:`repro.access`): only set
    positions inside the scan's row range are emitted, so pages holding no
    candidate row are never touched by downstream reads.  The bitmap is a
    sound superset of the rows satisfying the query's implied predicate for
    this alias, which keeps results byte-identical to an unpruned scan.
    """

    def __init__(
        self,
        kind: str,
        alias: str,
        table: Table,
        partition: TablePartition | None = None,
        node_id: int | None = None,
        candidates: Bitmap | None = None,
    ) -> None:
        super().__init__(node_id=node_id)
        if kind not in ("traditional", "tagged", "bypass"):
            raise ValueError(f"unknown execution kind {kind!r}")
        if candidates is not None and candidates.size != table.num_rows:
            raise ValueError(
                f"candidate bitmap size {candidates.size} does not match table "
                f"{table.name!r} with {table.num_rows} rows"
            )
        self.kind = kind
        self.alias = alias
        self.table = table
        self.partition = partition
        self.candidates = candidates
        self._done = False

    def open(self, context: ExecContext) -> None:
        super().open(context)
        self._done = False

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
            np.flatnonzero(self.candidates.mask[start:stop]) + start
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

    def _next(self, context: ExecContext):
        if self._done:
            return None
        self._done = True
        indices = self._pruned_indices(context)
        context.metrics.operators_executed += 1
        self.record_rows(context, int(indices.size), int(indices.size))
        if self.kind == "tagged":
            return TaggedRelation(
                {self.alias: self.table},
                {self.alias: indices},
                {Tag.empty(): Bitmap.full(int(indices.size))},
            )
        relation = Relation({self.alias: self.table}, {self.alias: indices})
        context.metrics.tuples_materialized += relation.num_rows
        if self.kind == "bypass":
            context.metrics.streams_created += 1
            return StreamSet([BypassStream(Tag.empty(), relation)])
        return relation


# --------------------------------------------------------------------------- #
# Filters (streaming: one output batch per input batch)
# --------------------------------------------------------------------------- #
class FilterPhysical(PhysicalOperator):
    """Streaming filter around one of the three model filter kernels."""

    def __init__(
        self, kernel, child: PhysicalOperator, node_id: int | None = None
    ) -> None:
        super().__init__([child], node_id=node_id)
        self.kernel = kernel

    def _next(self, context: ExecContext):
        batch = self.children[0].next_batch()
        if batch is None:
            return None
        output = self.kernel.execute(batch, context)
        if context.collect_feedback:
            self.record_rows(context, live_rows(batch), live_rows(output))
        return output


# --------------------------------------------------------------------------- #
# Joins (build side drained and merged, probe side streamed)
# --------------------------------------------------------------------------- #
class JoinPhysical(PhysicalOperator):
    """Hash join: drains the build (left) child, streams the probe child."""

    def __init__(
        self,
        kernel,
        build: PhysicalOperator,
        probe: PhysicalOperator,
        node_id: int | None = None,
    ) -> None:
        super().__init__([build, probe], node_id=node_id)
        self.kernel = kernel
        self._build_batch = None

    def open(self, context: ExecContext) -> None:
        super().open(context)
        self._build_batch = None

    def close(self) -> None:
        super().close()
        self._build_batch = None

    def _next(self, context: ExecContext):
        if self._build_batch is None:
            build_batches = self.children[0].drain()
            if not build_batches:
                return None
            self._build_batch = merge_batches(build_batches)
            if context.collect_feedback:
                self.record_rows(context, live_rows(self._build_batch), 0)
        probe_batch = self.children[1].next_batch()
        if probe_batch is None:
            return None
        output = self.kernel.execute(self._build_batch, probe_batch, context)
        if context.collect_feedback:
            self.record_rows(context, live_rows(probe_batch), live_rows(output))
        return output


# --------------------------------------------------------------------------- #
# Roots (emit OutputColumns)
# --------------------------------------------------------------------------- #
class TaggedProjectPhysical(PhysicalOperator):
    """Tagged projection root: tag-based selection, then materialization."""

    def __init__(
        self,
        child: PhysicalOperator,
        projection: ProjectionTagSet | None,
        residual_predicate,
        columns: list,
        node_id: int | None = None,
    ) -> None:
        super().__init__([child], node_id=node_id)
        self.projection = projection
        self.residual_predicate = residual_predicate
        self.columns = list(columns or [])

    def _next(self, context: ExecContext):
        relation = self.children[0].next_batch()
        if relation is None:
            return None
        projection = self.projection or ProjectionTagSet(allowed=set(relation.slices))
        kernel = TaggedProjectOperator(
            projection, residual_predicate=self.residual_predicate
        )
        positions = kernel.execute(relation, context)
        if context.collect_feedback:
            self.record_rows(context, live_rows(relation), int(positions.size))
        return materialize_output(
            relation.tables, relation.indices, positions, self.columns
        )


class TraditionalProjectPhysical(PhysicalOperator):
    """Traditional root: union the subplan pipelines, then materialize.

    Children are the subplan roots of a :class:`TraditionalPlan`.  Each child
    is drained fully (they are independent pipelines over the same partition)
    and BDisj's deduplicating union combines them, exactly as the serial
    executor always has.  Emits a single OutputColumns batch.
    """

    def __init__(
        self,
        children: list[PhysicalOperator],
        columns: list,
        needs_union: bool,
        node_id: int | None = None,
    ) -> None:
        super().__init__(children, node_id=node_id)
        self.columns = list(columns or [])
        self.needs_union = needs_union
        self._done = False

    def open(self, context: ExecContext) -> None:
        super().open(context)
        self._done = False

    def _next(self, context: ExecContext):
        if self._done:
            return None
        self._done = True
        relations = [merge_batches(child.drain()) for child in self.children]
        if len(relations) == 1 and not self.needs_union:
            final = relations[0]
        else:
            non_empty = [relation for relation in relations if relation.num_rows > 0]
            if not non_empty:
                final = relations[0]
            else:
                final = UnionOperator().execute(non_empty, context)
        positions = np.arange(final.num_rows, dtype=np.int64)
        context.metrics.output_rows += final.num_rows
        if context.collect_feedback:
            self.record_rows(
                context,
                sum(live_rows(relation) for relation in relations),
                int(final.num_rows),
            )
        return materialize_output(final.tables, final.indices, positions, self.columns)


class BypassProjectPhysical(PhysicalOperator):
    """Bypass root: accept/reject streams, concatenate, materialize."""

    def __init__(
        self,
        child: PhysicalOperator,
        predicate_tree,
        columns: list,
        three_valued: bool,
        node_id: int | None = None,
        alias_tables: dict | None = None,
    ) -> None:
        super().__init__([child], node_id=node_id)
        self.kernel = BypassProjectOperator(
            predicate_tree,
            columns,
            three_valued=three_valued,
            alias_tables=alias_tables,
        )

    def _next(self, context: ExecContext):
        streams = self.children[0].next_batch()
        if streams is None:
            return None
        output = self.kernel.execute(streams, context)
        if context.collect_feedback:
            self.record_rows(context, live_rows(streams), live_rows(output))
        return output


__all__ = [
    "BypassProjectPhysical",
    "live_rows",
    "FilterPhysical",
    "JoinPhysical",
    "ScanPhysical",
    "TaggedProjectPhysical",
    "TraditionalProjectPhysical",
    # Re-exported kernels, for callers building trees by hand.
    "BypassFilterOperator",
    "BypassJoinOperator",
    "FilterOperator",
    "HashJoinOperator",
    "TaggedFilterOperator",
    "TaggedJoinOperator",
]
