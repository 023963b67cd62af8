"""Bypass operators: filter (with true/false streams), join, project.

The operators work on :class:`~repro.bypass.streams.StreamSet` objects: each
stream is a plain :class:`~repro.bypass.streams.Relation` that a filter
compacts and a join pairs with one hash table per stream pair.  Tags are
used only at plan/operator level to decide which streams
may bypass an operator or be discarded outright; the data path itself is the
conventional one (copying index rows between streams, one hash table per
stream pair), which is precisely what separates the bypass technique from
tagged execution.

Each class is a :class:`~repro.physical.base.PhysicalOperator`; ``execute(...)``
is the whole-stream-set kernel, callable on its own without children.
"""

from __future__ import annotations

import numpy as np

from repro.bypass.streams import BypassStream, Relation, StreamSet
from repro.core.generalize import generalize_tag, refutes_root, satisfies_root
from repro.core.predtree import PredicateTree
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.engine.result import (
    OutputColumns,
    materialize_empty_output,
    materialize_output,
)
from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr
from repro.physical.base import BuildProbeJoin, StreamingFilter
from repro.physical.expressions import evaluate_predicate, read_join_keys
from repro.plan.query import JoinCondition
from repro.utils.join import equi_join_indices


def join_relations(
    conditions: list[JoinCondition],
    left: Relation,
    right: Relation,
    context: ExecContext,
) -> Relation:
    """Equi-join two plain relations: one hash table, built over the smaller.

    The pairwise join body the bypass join runs once per stream pair.  An
    empty input yields an empty relation over both alias sets without
    building or reading anything.
    """
    merged_tables = {**left.tables, **right.tables}
    if left.num_rows == 0 or right.num_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        indices = {alias: empty for alias in list(left.indices) + list(right.indices)}
        return Relation(merged_tables, indices)

    context.metrics.record_hash_build(left.num_rows, right.num_rows)

    left_keys, right_keys = read_join_keys(
        conditions, left.tables, left.indices, right.tables, right.indices, context
    )
    left_match, right_match = equi_join_indices(left_keys, right_keys)

    out_indices: dict[str, np.ndarray] = {}
    for alias in left.indices:
        out_indices[alias] = left.indices[alias][left_match]
    for alias in right.indices:
        out_indices[alias] = right.indices[alias][right_match]

    context.metrics.join_output_rows += int(left_match.size)
    context.metrics.tuples_materialized += int(left_match.size)
    return Relation(merged_tables, out_indices)


class BypassFilterOperator(StreamingFilter):
    """Split each input stream into a "true" and a "false" output stream.

    Streams whose tag already satisfies the overall WHERE expression bypass
    the filter untouched; streams whose tag already determines this
    predicate's outcome (or whose instances are all dominated by an assigned
    ancestor) also pass through, because re-evaluating would not refine them.
    Output streams whose generalized tag refutes the root are dropped.
    """

    def __init__(
        self,
        predicate: BooleanExpr,
        tree: PredicateTree | None,
        three_valued: bool = True,
        child=None,
        node_id=None,
    ) -> None:
        super().__init__(child, node_id)
        self.predicate = predicate
        self.tree = tree
        self.three_valued = three_valued

    def execute(self, streams: StreamSet, context: ExecContext) -> StreamSet:
        """Run the filter over every stream that still needs it."""
        context.metrics.operators_executed += 1
        output = StreamSet()
        for stream in streams:
            if self._should_bypass(stream.tag):
                output.add(stream)
                continue
            self._split_stream(stream, output, context)
        context.metrics.streams_created += output.num_streams
        return output

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _should_bypass(self, tag: Tag) -> bool:
        if self.tree is None:
            return False
        if satisfies_root(self.tree, tag):
            return True
        predicate_key = self.predicate.key()
        if predicate_key in tag:
            return True
        assigned = set(tag.keys())
        if assigned and self.tree.every_instance_has_assigned_ancestor(predicate_key, assigned):
            return True
        return False

    def _split_stream(
        self, stream: BypassStream, output: StreamSet, context: ExecContext
    ) -> None:
        relation = stream.relation
        if relation.num_rows == 0:
            return
        truth = evaluate_predicate(
            self.predicate,
            relation.tables,
            relation.indices,
            context,
            description="bypass filter",
        )
        context.metrics.predicate_evaluations += 1
        context.metrics.predicate_rows_evaluated += relation.num_rows

        outcomes = [(tv.TRUE, np.flatnonzero(tv.is_true(truth)))]
        false_positions = np.flatnonzero(tv.is_false(truth))
        unknown_positions = np.flatnonzero(tv.is_unknown(truth))
        if self.three_valued:
            outcomes.append((tv.FALSE, false_positions))
            outcomes.append((tv.UNKNOWN, unknown_positions))
        else:
            outcomes.append(
                (tv.FALSE, np.sort(np.concatenate([false_positions, unknown_positions])))
            )

        predicate_key = self.predicate.key()
        for value, positions in outcomes:
            if positions.size == 0:
                continue
            tag = stream.tag.with_assignment(predicate_key, value)
            tag = self._generalize(tag)
            if tag is None:
                continue
            new_stream = stream.take(positions, tag)
            context.metrics.tuples_materialized += new_stream.num_rows
            output.add(new_stream)

    def _generalize(self, tag: Tag) -> Tag | None:
        if self.tree is None:
            return tag
        generalized = generalize_tag(self.tree, tag)
        if refutes_root(self.tree, generalized, include_unknown=True):
            return None
        return generalized


class BypassJoinOperator(BuildProbeJoin):
    """Equi-join of two stream sets, one hash join per stream pair."""

    def __init__(
        self,
        conditions: list[JoinCondition],
        tree: PredicateTree | None,
        build=None,
        probe=None,
        node_id=None,
    ) -> None:
        if not conditions:
            raise ValueError("a bypass join requires at least one join condition")
        super().__init__(build, probe, node_id)
        self.conditions = list(conditions)
        self.tree = tree

    def execute(
        self, left: StreamSet, right: StreamSet, context: ExecContext
    ) -> StreamSet:
        """Join every viable (left stream, right stream) pair."""
        context.metrics.operators_executed += 1
        output = StreamSet()
        for left_stream in left:
            for right_stream in right:
                combined = self._combine_tags(left_stream.tag, right_stream.tag)
                if combined is None:
                    continue
                # Each stream pair builds its own hash table: this is the
                # per-pair work the shared hash table of tagged execution
                # amortizes away.  (Empty join results are dropped by add.)
                joined = join_relations(
                    self.conditions, left_stream.relation, right_stream.relation, context
                )
                output.add(BypassStream(combined, joined))
        context.metrics.streams_created += output.num_streams
        return output

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _combine_tags(self, left_tag: Tag, right_tag: Tag) -> Tag | None:
        try:
            combined = left_tag.union(right_tag)
        except ValueError:
            return None
        if self.tree is None:
            return combined
        generalized = generalize_tag(self.tree, combined)
        if refutes_root(self.tree, generalized, include_unknown=True):
            return None
        return generalized


class BypassProjectOperator(StreamingFilter):
    """Bypass root: collect the accepted streams and materialize the output columns.

    Streams whose tag satisfies the root pass straight through.  Streams with
    an undetermined root assignment (possible when a predicate could not be
    pushed below the final project) are filtered with the residual WHERE
    expression.  Because streams are pairwise disjoint, the final result is a
    concatenation — the bypass model, like tagged execution, never needs the
    deduplicating union operator BDisj relies on.
    """

    label = "BypassProjectPhysical"

    def __init__(
        self,
        tree: PredicateTree | None,
        select: list,
        three_valued: bool = True,
        alias_tables: dict | None = None,
        child=None,
        node_id=None,
    ) -> None:
        super().__init__(child, node_id)
        self.tree = tree
        self.select = list(select or [])
        self.three_valued = three_valued
        #: alias -> base :class:`~repro.storage.table.Table`, supplied by the
        #: compiler so a zero-match execution still knows the output schema.
        self.alias_tables = dict(alias_tables) if alias_tables else None

    def execute(self, streams: StreamSet, context: ExecContext) -> OutputColumns:
        """Materialize the output columns of the accepted streams."""
        context.metrics.operators_executed += 1
        accepted: list[Relation] = []
        for stream in streams:
            relation = self._accept(stream, context)
            if relation is not None and relation.num_rows > 0:
                accepted.append(relation)

        if not accepted:
            # A zero-match execution must still emit the output schema:
            # downstream aggregation (COUNT = 0 / NULL extremes) and sharded
            # partial aggregation need the column names and dtypes.  The
            # compiler supplies the alias -> table map; when this operator
            # was built by hand without one, fall back to a rejected
            # stream's relation (which spans the full alias set at the
            # root), and only a schema-less empty when no stream arrived.
            if self.alias_tables is not None:
                return materialize_empty_output(
                    self.alias_tables, list(self.alias_tables), self.select
                )
            for stream in streams:
                return materialize_empty_output(
                    stream.relation.tables, stream.relation.indices, self.select
                )
            return OutputColumns.empty()

        merged_tables = {}
        for relation in accepted:
            merged_tables.update(relation.tables)
        aliases = sorted(accepted[0].indices)
        merged_indices = {
            alias: np.concatenate([relation.indices[alias] for relation in accepted])
            for alias in aliases
        }
        final = Relation(merged_tables, merged_indices)
        positions = np.arange(final.num_rows, dtype=np.int64)
        context.metrics.output_rows += final.num_rows
        return materialize_output(final.tables, final.indices, positions, self.select)

    def _accept(self, stream: BypassStream, context: ExecContext) -> Relation | None:
        if self.tree is None:
            return stream.relation
        if satisfies_root(self.tree, stream.tag):
            return stream.relation
        if refutes_root(self.tree, stream.tag, include_unknown=True):
            return None
        # Undetermined: fall back to evaluating the full residual predicate.
        relation = stream.relation
        truth = evaluate_predicate(
            self.tree.expression,
            relation.tables,
            relation.indices,
            context,
            description="residual",
        )
        context.metrics.residual_rows_evaluated += relation.num_rows
        keep = np.flatnonzero(tv.is_true(truth))
        if keep.size == 0:
            return None
        return relation.take(keep)
