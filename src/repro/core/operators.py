"""Tagged execution operators: filter, join and projection.

These implement the runtime side of Section 2: given the tag maps produced at
plan time, each operator touches only the relational slices its tag map names
and routes results to output tags.  Implementation follows Basilisk's choices
(Section 2.5): filters evaluate their predicate once over the union of the
matching slices' bitmaps and rewrite bitmaps instead of deleting rows; joins
build a single shared structure over all participating slices; values are
fetched lazily by row index through the storage layer.

A relation of one slice takes a one-slice path, chosen from the input: a
filter with only a TRUE outcome gathers the passing rows into a compacted
relation (no other row could stay live), and a join of one slice per side is
a single hash join without slice bookkeeping.  Traditional plans run here
under one-tag maps, so for them this path *is* the plain filter and join.

Each class is a :class:`~repro.physical.base.PhysicalOperator`: the batched
pull protocol comes from the streaming bases, ``execute(...)`` is the
whole-relation kernel (callable on its own, without children).
"""

from __future__ import annotations

import numpy as np

from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import FilterTagMap, JoinTagMap, ProjectionTagSet
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.engine.result import materialize_output
from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr
from repro.physical.base import BuildProbeJoin, PhysicalOperator, StreamingFilter
from repro.physical.expressions import evaluate_predicate, read_join_keys
from repro.plan.query import JoinCondition
from repro.storage.bitmap import Bitmap
from repro.utils.join import equi_join_indices

#: Sentinel stored in the full-length truth array for rows the filter did not
#: evaluate (they belong to no matching slice).
_NOT_EVALUATED = np.uint8(255)


def _concatenate(chunks: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that does not copy a lone chunk (the usual case)."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _slice_positions(relation: TaggedRelation, tag: Tag) -> np.ndarray | None:
    """Positions of one slice's rows, or ``None`` when it holds every row."""
    bitmap = relation.slices[tag]
    return None if bitmap.count() == relation.num_rows else bitmap.positions()


class TaggedFilterOperator(StreamingFilter):
    """Filter operator driven by a tag map (Section 2.2 / 2.5.2)."""

    def __init__(
        self, predicate: BooleanExpr, tag_map: FilterTagMap, child=None, node_id=None
    ) -> None:
        super().__init__(child, node_id)
        self.predicate = predicate
        self.tag_map = tag_map
        #: In-tag -> its TRUE tag, for the entries whose only outcome is TRUE.
        self._true_only = {
            tag: entry.pos_tag
            for tag, entry in tag_map.entries.items()
            if entry.output_tags() == [entry.pos_tag]
        }

    def execute(self, relation: TaggedRelation, context: ExecContext) -> TaggedRelation:
        """Apply the filter to ``relation`` and return the output relation."""
        context.metrics.operators_executed += 1
        if len(relation.slices) == 1:
            (tag,) = relation.slices
            if tag in self._true_only:
                return self._keep_true(relation, tag, self._true_only[tag], context)

        matching = [tag for tag in relation.slices if self.tag_map.matches(tag)]
        passthrough = [tag for tag in relation.slices if not self.tag_map.matches(tag)]

        output_masks: dict[Tag, np.ndarray] = {}

        def add_mask(tag: Tag, mask: np.ndarray) -> None:
            if not mask.any():
                return
            if tag in output_masks:
                output_masks[tag] = output_masks[tag] | mask
            else:
                output_masks[tag] = mask

        for tag in passthrough:
            add_mask(tag, relation.slices[tag].mask)

        if matching:
            union_bitmap = Bitmap.union_all(
                (relation.slices[tag] for tag in matching), size=relation.num_rows
            )
            positions = union_bitmap.positions()
            truth_full = np.full(relation.num_rows, _NOT_EVALUATED, dtype=np.uint8)
            if positions.size:
                truth_full[positions] = self._evaluate(relation, positions, context)
            context.metrics.predicate_evaluations += 1
            context.metrics.predicate_rows_evaluated += int(positions.size)

            true_mask = truth_full == np.uint8(int(tv.TRUE))
            false_mask = truth_full == np.uint8(int(tv.FALSE))
            unknown_mask = truth_full == np.uint8(int(tv.UNKNOWN))

            for tag in matching:
                entry = self.tag_map.entries[tag]
                slice_mask = relation.slices[tag].mask
                if entry.pos_tag is not None:
                    add_mask(entry.pos_tag, slice_mask & true_mask)
                if entry.neg_tag is not None:
                    add_mask(entry.neg_tag, slice_mask & false_mask)
                if entry.unk_tag is not None:
                    add_mask(entry.unk_tag, slice_mask & unknown_mask)

        slices = {tag: Bitmap.from_mask(mask) for tag, mask in output_masks.items()}
        context.metrics.slices_created += len(slices)
        return relation.with_slices(slices)

    def _keep_true(
        self, relation: TaggedRelation, tag: Tag, pos_tag: Tag, context: ExecContext
    ) -> TaggedRelation:
        """One slice whose only outcome is TRUE: evaluate it, gather the survivors.

        Every other row of the relation would be dead after the filter, so
        the output is compacted to the passing rows (one slice under
        ``pos_tag``); a full slice is evaluated without a position gather.
        """
        positions = _slice_positions(relation, tag)
        truth = self._evaluate(relation, positions, context)
        context.metrics.predicate_evaluations += 1
        context.metrics.predicate_rows_evaluated += int(truth.size)
        keep = np.flatnonzero(tv.is_true(truth))
        output = relation.take(keep if positions is None else positions[keep], pos_tag)
        context.metrics.slices_created += len(output.slices)
        return output

    def _evaluate(
        self, relation: TaggedRelation, positions: np.ndarray, context: ExecContext
    ) -> np.ndarray:
        return evaluate_predicate(
            self.predicate, relation.tables, relation.indices, context, positions=positions
        )


class TaggedJoinOperator(BuildProbeJoin):
    """Hash equi-join driven by a tag map (Section 2.3 / 2.5.3)."""

    def __init__(
        self,
        conditions: list[JoinCondition],
        tag_map: JoinTagMap,
        build=None,
        probe=None,
        node_id=None,
    ) -> None:
        if not conditions:
            raise ValueError("a tagged join requires at least one join condition")
        super().__init__(build, probe, node_id)
        self.conditions = list(conditions)
        self.tag_map = tag_map
        self._left_tags, self._right_tags = tag_map.left_tags(), tag_map.right_tags()

    def execute(
        self, left: TaggedRelation, right: TaggedRelation, context: ExecContext
    ) -> TaggedRelation:
        """Join ``left`` and ``right`` and return the output tagged relation.

        Only slice pairings with a tag-map entry are joined; incompatible
        pairings are never generated.  Right slices sharing the same set of
        compatible left slices are probed together against one shared build
        structure, mirroring Basilisk's single hash table per join.
        """
        context.metrics.operators_executed += 1

        left_tags = [tag for tag in left.slices if tag in self._left_tags]
        right_tags = [tag for tag in right.slices if tag in self._right_tags]
        pair = (left_tags[0], right_tags[0]) if len(left_tags) == len(right_tags) == 1 else None
        if pair in self.tag_map.entries:
            joined = self._join_pair(left, right, pair, context)
        else:
            joined = self._join_groups(left, right, left_tags, right_tags, context)

        merged_tables = {**left.tables, **right.tables}
        if joined is None:
            return TaggedRelation(merged_tables, self._empty_indices(left, right), {})
        kept_left_rows, kept_right_rows, out_slices = joined
        output_rows = int(kept_left_rows.size)

        out_indices: dict[str, np.ndarray] = {}
        for alias in left.indices:
            out_indices[alias] = left.indices[alias][kept_left_rows]
        for alias in right.indices:
            out_indices[alias] = right.indices[alias][kept_right_rows]

        context.metrics.join_output_rows += output_rows
        context.metrics.tuples_materialized += output_rows
        context.metrics.slices_created += len(out_slices)
        return TaggedRelation(merged_tables, out_indices, out_slices)

    def _join_pair(
        self,
        left: TaggedRelation,
        right: TaggedRelation,
        pair: tuple[Tag, Tag],
        context: ExecContext,
    ):
        """One mapped slice per side: a single hash join, no slice bookkeeping.

        A full slice joins on the relation's whole index arrays (no position
        gather).  Returns ``(left rows, right rows, slices)`` or ``None``.
        """
        left_rows = _slice_positions(left, pair[0])
        right_rows = _slice_positions(right, pair[1])
        context.metrics.record_hash_build(
            left.num_rows if left_rows is None else int(left_rows.size),
            right.num_rows if right_rows is None else int(right_rows.size),
        )
        left_keys, right_keys = self._join_keys(left, right, left_rows, right_rows, context)
        left_match, right_match = equi_join_indices(left_keys, right_keys)
        if left_match.size == 0:
            return None
        return (
            left_match if left_rows is None else left_rows[left_match],
            right_match if right_rows is None else right_rows[right_match],
            {self.tag_map.entries[pair]: Bitmap.full(int(left_match.size))},
        )

    def _join_groups(
        self,
        left: TaggedRelation,
        right: TaggedRelation,
        left_tags: list[Tag],
        right_tags: list[Tag],
        context: ExecContext,
    ):
        """Any slices per side: one join per group of right slices sharing
        their compatible left slices.  Returns ``(left rows, right rows,
        slices)`` or ``None`` when nothing matches."""
        if not left_tags or not right_tags:
            return None

        # Participating rows (ascending) with the index of the slice each is in
        # (slices are mutually exclusive), and their join keys (−1 = NULL key).
        left_rows, left_slice = self._participants(left, left_tags)
        right_rows, right_slice = self._participants(right, right_tags)
        left_keys, right_keys = self._join_keys(left, right, left_rows, right_rows, context)

        # Output-tag lookup table indexed by (left slice id, right slice id).
        out_tags: list[Tag] = []
        out_tag_index: dict[Tag, int] = {}
        allowed = np.full((len(left_tags), len(right_tags)), -1, dtype=np.int64)
        left_tag_index = {tag: index for index, tag in enumerate(left_tags)}
        right_tag_index = {tag: index for index, tag in enumerate(right_tags)}
        for (left_tag, right_tag), out_tag in self.tag_map.entries.items():
            if left_tag not in left_tag_index or right_tag not in right_tag_index:
                continue
            if out_tag not in out_tag_index:
                out_tag_index[out_tag] = len(out_tags)
                out_tags.append(out_tag)
            allowed[left_tag_index[left_tag], right_tag_index[right_tag]] = out_tag_index[out_tag]

        # Group right slices by their compatible left-slice sets so each group
        # is joined exactly once against exactly the rows it may match.
        groups: dict[frozenset[int], list[int]] = {}
        for right_index in range(len(right_tags)):
            compatible = frozenset(np.flatnonzero(allowed[:, right_index] >= 0).tolist())
            if compatible:
                groups.setdefault(compatible, []).append(right_index)

        matched_left_chunks: list[np.ndarray] = []
        matched_right_chunks: list[np.ndarray] = []
        matched_tag_chunks: list[np.ndarray] = []

        for compatible_left, right_indices in groups.items():
            left_pick = self._members(left_slice, compatible_left, len(left_tags))
            right_pick = self._members(right_slice, right_indices, len(right_tags))
            left_group, right_group = left_rows[left_pick], right_rows[right_pick]
            if left_group.size == 0 or right_group.size == 0:
                continue
            context.metrics.record_hash_build(int(left_group.size), int(right_group.size))

            left_match, right_match = equi_join_indices(
                left_keys[left_pick], right_keys[right_pick]
            )
            if left_match.size == 0:
                continue
            matched_left_chunks.append(left_group[left_match])
            matched_right_chunks.append(right_group[right_match])
            if len(out_tags) > 1:  # with one output tag every pair carries it
                matched_tag_chunks.append(
                    allowed[left_slice[left_pick][left_match], right_slice[right_pick][right_match]]
                )

        if not matched_left_chunks:
            return None

        kept_left_rows = _concatenate(matched_left_chunks)
        out_slices: dict[Tag, Bitmap] = {}
        if len(out_tags) == 1:
            out_slices[out_tags[0]] = Bitmap.full(int(kept_left_rows.size))
        else:
            kept_tag_indices = _concatenate(matched_tag_chunks)
            for index, out_tag in enumerate(out_tags):
                mask = kept_tag_indices == index
                if mask.any():
                    out_slices[out_tag] = Bitmap.from_mask(mask)
        return kept_left_rows, _concatenate(matched_right_chunks), out_slices

    @staticmethod
    def _participants(relation: TaggedRelation, tags: list[Tag]) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions of the rows in the listed slices, and per
        position the index (into ``tags``) of the slice holding it."""
        if len(tags) == 1:
            positions = relation.slices[tags[0]].positions()
            return positions, np.zeros(positions.size, dtype=np.int64)
        slice_of_row = np.full(relation.num_rows, -1, dtype=np.int64)
        for index, tag in enumerate(tags):
            slice_of_row[relation.slices[tag].positions()] = index
        positions = np.flatnonzero(slice_of_row >= 0)
        return positions, slice_of_row[positions]

    @staticmethod
    def _members(slice_ids: np.ndarray, wanted, num_slices: int) -> np.ndarray | slice:
        """Selector of the participants lying in the ``wanted`` slices."""
        if len(wanted) == num_slices:
            return slice(None)
        is_wanted = np.zeros(num_slices, dtype=np.bool_)
        is_wanted[list(wanted)] = True
        return np.flatnonzero(is_wanted[slice_ids])

    def _join_keys(
        self,
        left: TaggedRelation,
        right: TaggedRelation,
        left_positions: np.ndarray,
        right_positions: np.ndarray,
        context: ExecContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        return read_join_keys(
            self.conditions,
            left.tables,
            left.indices,
            right.tables,
            right.indices,
            context,
            left_positions=left_positions,
            right_positions=right_positions,
        )

    @staticmethod
    def _empty_indices(left: TaggedRelation, right: TaggedRelation) -> dict[str, np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        out = {alias: empty for alias in left.indices}
        out.update({alias: empty for alias in right.indices})
        return out


class TaggedProjectOperator(PhysicalOperator):
    """Projection root: the final tag-based selection point (Section 2.4),
    then materialization of ``columns``.

    ``projection=None`` (a plan without tag annotations) accepts every slice.
    """

    label = "TaggedProjectPhysical"

    def __init__(
        self,
        projection: ProjectionTagSet | None,
        residual_predicate: BooleanExpr | None = None,
        columns=(),
        child=None,
        node_id=None,
    ) -> None:
        super().__init__([child], node_id=node_id)
        self.projection = projection
        self.residual_predicate = residual_predicate
        self.columns = list(columns or [])

    def _next(self, context: ExecContext):
        relation = self.children[0].next_batch()
        if relation is None:
            return None
        positions = self.execute(relation, context)
        if context.collect_feedback:
            self.record_rows(context, relation.live_rows, int(positions.size))
        return materialize_output(relation.tables, relation.indices, positions, self.columns)

    def execute(self, relation: TaggedRelation, context: ExecContext) -> np.ndarray:
        """Return the row positions (into the relation) that belong to the result."""
        context.metrics.operators_executed += 1
        projection = self.projection
        if projection is None:
            projection = ProjectionTagSet(allowed=set(relation.slices))
        selected = Bitmap.empty(relation.num_rows)
        for tag in projection.allowed:
            if tag in relation.slices:
                selected = selected | relation.slices[tag]

        residual_tags = [tag for tag in projection.residual if tag in relation.slices]
        if residual_tags:
            if self.residual_predicate is None:
                raise ValueError(
                    "relation contains slices without a definite root assignment "
                    "but no residual predicate was provided"
                )
            residual_bitmap = Bitmap.union_all(
                (relation.slices[tag] for tag in residual_tags), size=relation.num_rows
            )
            positions = residual_bitmap.positions()
            if positions.size:
                truth = evaluate_predicate(
                    self.residual_predicate,
                    relation.tables,
                    relation.indices,
                    context,
                    positions=positions,
                    description="residual",
                )
                context.metrics.residual_rows_evaluated += int(positions.size)
                passing = positions[tv.is_true(truth)]
                selected = selected | Bitmap.from_positions(relation.num_rows, passing)

        result_positions = selected.positions()
        context.metrics.output_rows += int(result_positions.size)
        return result_positions
