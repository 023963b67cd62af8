"""Tagged execution operators: filter, join and projection.

These implement the runtime side of Section 2: given the tag maps produced at
plan time, each operator touches only the relational slices its tag map names
and routes results to output tags.  A relation holds live rows only, each
with a slice id (:mod:`repro.core.tagged_relation`), so every operator routes
rows the same way — one lookup table indexed by slice id — and compacts its
output to the rows it keeps, in ascending order:

* a filter evaluates its predicate once over the rows of the matching slices
  and looks up ``route[slice id, truth value]``, the output tag or a drop;
  passthrough slices keep their tag, and two routes to one tag merge;
* a join builds one hash table over the rows of all participating slices,
  probes it once and looks up ``allowed[left slice id, right slice id]`` for
  each matching pair;
* the projection keeps the rows of allowed slices and the residual rows that
  pass the residual predicate.

This deviates from Basilisk (Sections 2.5.1–2.5.2), whose filters rewrite
bitmaps and leave dropped rows in the relation; see the module docstring of
:mod:`repro.core.tagged_relation` for the measured reason.  A full slice is
never gathered: a one-tag filter input whose tag matches is evaluated
without positions, and a join side whose every slice takes part is joined on
its whole index arrays.  Values are fetched lazily by row index through the
storage layer.  Traditional plans run here under one-tag maps, so for them
these *are* the plain filter and join.

Each class is a :class:`~repro.physical.base.PhysicalOperator`: ``run``
runs its children once each (a join its build side, then its probe side) and
returns one output, and ``execute(...)`` is the whole-relation kernel
(callable on its own, without children).
"""

from __future__ import annotations

import numpy as np

from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import FilterTagMap, JoinTagMap, ProjectionTagSet
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.engine.result import OutputColumns, materialize_output
from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr
from repro.physical.base import PhysicalOperator
from repro.physical.expressions import evaluate_predicate, read_join_keys
from repro.plan.query import JoinCondition
from repro.utils.join import equi_join_indices

#: Truth values, one entry each per slice in a filter's routing table.
_OUTCOMES = 3


def hash_join(
    conditions: list[JoinCondition],
    left: TaggedRelation,
    right: TaggedRelation,
    left_rows: np.ndarray | None,
    right_rows: np.ndarray | None,
    context: ExecContext,
) -> tuple[np.ndarray, np.ndarray]:
    """The join kernel: one hash table over the given rows of two relations.

    ``left_rows`` / ``right_rows`` are positions into each relation, or
    ``None`` for every row (joined on the whole index arrays, no gather).
    Returns the matching ``(left, right)`` positions into the relations.
    """
    left_keys, right_keys = read_join_keys(
        conditions,
        left.tables,
        left.indices,
        right.tables,
        right.indices,
        context,
        left_positions=left_rows,
        right_positions=right_rows,
    )
    context.metrics.record_hash_build(
        int(np.count_nonzero(left_keys >= 0)), int(np.count_nonzero(right_keys >= 0))
    )
    left_match, right_match = equi_join_indices(left_keys, right_keys)
    return (
        left_match if left_rows is None else left_rows[left_match],
        right_match if right_rows is None else right_rows[right_match],
    )


def _tag_id(out_tags: dict[Tag, int], tag: Tag | None) -> int:
    """The id of output tag ``tag``, in first-use order; -1 for ``None``, a dropped row."""
    return -1 if tag is None else out_tags.setdefault(tag, len(out_tags))


def _route(
    cell: np.ndarray, route: list[int], out_tags: list[Tag]
) -> tuple[np.ndarray | None, list[Tag], np.ndarray | None]:
    """Send each row to ``out_tags[route[cell[row]]]``, or drop it where that is -1.

    ``cell`` is each row's index into the lookup table ``route``: a filter's
    (slice id, truth value), a join's (left slice id, right slice id).
    Returns the ascending positions of the kept rows (``None`` when every row
    is kept), the output tags that receive rows (in ``out_tags`` order) and
    each kept row's index into them (``None`` for one tag).  With several
    candidate tags, one count of rows per cell tells which of them receive
    rows, so the table is renumbered to those before it is applied.
    """
    used = sorted({out for out in route if out >= 0})
    dropped = -1 in route
    if len(used) > 1:
        counts = np.bincount(cell, minlength=len(route)).tolist()
        used = sorted({out for out, rows in zip(route, counts) if rows and out >= 0})
        dropped = any(rows and out < 0 for out, rows in zip(route, counts))
    tags = [out_tags[out] for out in used]
    renumber = {out: index for index, out in enumerate(used)}
    table = np.array([renumber.get(out, -1) for out in route], dtype=np.int64)
    # ``take``, not fancy indexing: a uint8 index array would be cast first.
    if len(used) <= 1:
        out_ids = None
        keep = np.flatnonzero((table >= 0).take(cell)) if dropped else None
    else:
        out_ids = table.take(cell)
        keep = np.flatnonzero(out_ids >= 0) if dropped else None
    if keep is None or keep.size == cell.size:
        return None, tags, out_ids
    return keep, tags, None if out_ids is None else out_ids[keep]


class TaggedFilterOperator(PhysicalOperator):
    """Filter operator driven by a tag map (Section 2.2).

    Its output relation is :meth:`execute` over its child's.
    """

    label = "FilterPhysical"

    def __init__(
        self, predicate: BooleanExpr, tag_map: FilterTagMap, child=None, node_id=None
    ) -> None:
        super().__init__([child], node_id=node_id)
        self.predicate = predicate
        self.tag_map = tag_map

    def _run(self, context: ExecContext) -> TaggedRelation:
        relation = self.children[0].run(context)
        output = self.execute(relation, context)
        if context.collect_feedback:
            self.record_rows(context, relation.num_rows, output.num_rows)
        return output

    def execute(self, relation: TaggedRelation, context: ExecContext) -> TaggedRelation:
        """Apply the filter to ``relation`` and return the output relation."""
        context.metrics.operators_executed += 1
        # route[slice id * 3 + truth value] -> output tag id, or -1 to drop the
        # row (truth values in order: FALSE, TRUE, UNKNOWN).
        out_tags: dict[Tag, int] = {}
        route: list[int] = []
        evaluated = []
        for slice_id, tag in enumerate(relation.tags):
            entry = self.tag_map.entries.get(tag)
            if entry is None:
                route += [_tag_id(out_tags, tag)] * _OUTCOMES
            else:
                evaluated.append(slice_id)
                route += (
                    _tag_id(out_tags, entry.neg_tag),
                    _tag_id(out_tags, entry.pos_tag),
                    _tag_id(out_tags, entry.unk_tag),
                )
        if not evaluated:
            context.metrics.slices_created += len(relation.tags)
            return relation

        slice_ids = relation.slice_ids
        positions = None
        if len(evaluated) < len(relation.tags):
            matching = np.zeros(len(relation.tags), dtype=np.bool_)
            matching[evaluated] = True
            positions = np.flatnonzero(matching[slice_ids])
        truth = evaluate_predicate(
            self.predicate, relation.tables, relation.indices, context, positions=positions
        )
        context.metrics.predicate_evaluations += 1
        context.metrics.predicate_rows_evaluated += int(truth.size)
        if slice_ids is None:
            cell = truth
        else:
            cell = slice_ids * _OUTCOMES
            if positions is None:
                cell += truth
            else:
                # A passthrough slice routes every truth value alike.
                cell[positions] += truth

        keep, tags, out_ids = _route(cell, route, list(out_tags))
        indices = relation.indices
        if keep is not None:
            indices = {alias: idx[keep] for alias, idx in indices.items()}
        output = TaggedRelation(relation.tables, indices, tags, out_ids)
        context.metrics.slices_created += len(output.tags)
        return output


class TaggedJoinOperator(PhysicalOperator):
    """Hash equi-join driven by a tag map (Section 2.3 / 2.5.3).

    The build (left) child runs first, then the probe child, and
    :meth:`execute` joins their outputs.
    """

    label = "JoinPhysical"

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
        super().__init__([build, probe], node_id=node_id)
        self.conditions = list(conditions)
        self.tag_map = tag_map
        self._left_tags, self._right_tags = tag_map.left_tags(), tag_map.right_tags()

    def _run(self, context: ExecContext) -> TaggedRelation:
        build = self.children[0].run(context)
        probe = self.children[1].run(context)
        output = self.execute(build, probe, context)
        if context.collect_feedback:
            self.record_rows(context, build.num_rows + probe.num_rows, output.num_rows)
        return output

    def execute(
        self, left: TaggedRelation, right: TaggedRelation, context: ExecContext
    ) -> TaggedRelation:
        """Join ``left`` and ``right`` and return the output tagged relation.

        As in Basilisk, a join builds one hash table over the rows of every
        participating slice and probes it once; a matching pair survives when
        the tag map pairs its two slices, and that entry is its output tag.
        """
        context.metrics.operators_executed += 1
        kept_left, kept_right, tags, out_ids = self._join_slices(left, right, context)
        indices = {alias: idx[kept_left] for alias, idx in left.indices.items()}
        indices.update({alias: idx[kept_right] for alias, idx in right.indices.items()})
        output = TaggedRelation({**left.tables, **right.tables}, indices, tags, out_ids)
        context.metrics.join_output_rows += output.num_rows
        context.metrics.tuples_materialized += output.num_rows
        context.metrics.slices_created += len(output.tags)
        return output

    def _join_slices(self, left: TaggedRelation, right: TaggedRelation, context: ExecContext):
        """One hash join over the rows of every mapped slice of both sides.

        Returns the matched ``(left rows, right rows)``, the output tags and
        each pair's index into them (``None`` for one tag).  When there is one
        output tag and every pair of participating slices is joined, the slice
        of a matched row is never looked up.
        """
        # allowed[left slice id * right slices + right slice id] -> output tag
        # id, or -1 where the tag map does not pair the two slices.
        out_tags: dict[Tag, int] = {}
        allowed = [-1] * (len(left.tags) * len(right.tags))
        left_ids = {tag: index for index, tag in enumerate(left.tags) if tag in self._left_tags}
        right_ids = {tag: index for index, tag in enumerate(right.tags) if tag in self._right_tags}
        pairs = 0
        for (left_tag, right_tag), out_tag in self.tag_map.entries.items():
            if left_tag in left_ids and right_tag in right_ids:
                allowed[left_ids[left_tag] * len(right.tags) + right_ids[right_tag]] = (
                    _tag_id(out_tags, out_tag)
                )
                pairs += 1
        if not out_tags:
            nothing = np.empty(0, dtype=np.int64)
            return nothing, nothing, [], None

        kept_left, kept_right = hash_join(
            self.conditions,
            left,
            right,
            self._participants(left, list(left_ids.values())),
            self._participants(right, list(right_ids.values())),
            context,
        )
        if len(out_tags) == 1 and pairs == len(left_ids) * len(right_ids):
            return kept_left, kept_right, list(out_tags), None
        cell = 0 if right.slice_ids is None else right.slice_ids[kept_right]
        if left.slice_ids is not None:
            cell = cell + left.slice_ids[kept_left] * len(right.tags)
        keep, tags, out_ids = _route(cell, allowed, list(out_tags))
        if keep is not None:
            kept_left, kept_right = kept_left[keep], kept_right[keep]
        return kept_left, kept_right, tags, out_ids

    @staticmethod
    def _participants(relation: TaggedRelation, slice_ids: list[int]) -> np.ndarray | None:
        """Ascending positions of the rows in the listed slices (``None`` for every row)."""
        if len(slice_ids) == len(relation.tags):
            return None
        participates = np.zeros(len(relation.tags), dtype=np.bool_)
        participates[slice_ids] = True
        return np.flatnonzero(participates[relation.slice_ids])


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

    def _run(self, context: ExecContext) -> OutputColumns:
        relation = self.children[0].run(context)
        positions = self.execute(relation, context)
        if context.collect_feedback:
            self.record_rows(context, relation.num_rows, int(positions.size))
        return materialize_output(relation.tables, relation.indices, positions, self.columns)

    def execute(self, relation: TaggedRelation, context: ExecContext) -> np.ndarray:
        """Return the row positions (into the relation) that belong to the result."""
        context.metrics.operators_executed += 1
        projection = self.projection
        if projection is None:
            projection = ProjectionTagSet(allowed=set(relation.tags))
        allowed = np.array([tag in projection.allowed for tag in relation.tags], dtype=np.bool_)
        residual = np.array([tag in projection.residual for tag in relation.tags], dtype=np.bool_)
        if allowed.all() and not residual.any():
            context.metrics.output_rows += relation.num_rows
            return np.arange(relation.num_rows, dtype=np.int64)
        if residual.any() and self.residual_predicate is None:
            raise ValueError(
                "relation contains slices without a definite root assignment "
                "but no residual predicate was provided"
            )

        slice_ids = relation.slice_ids
        if slice_ids is None:
            slice_ids = np.zeros(relation.num_rows, dtype=np.int64)
        selected = allowed[slice_ids]
        positions = np.flatnonzero(residual[slice_ids])
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
            selected[positions[tv.is_true(truth)]] = True

        result_positions = np.flatnonzero(selected)
        context.metrics.output_rows += int(result_positions.size)
        return result_positions
