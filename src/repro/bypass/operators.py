"""Bypass operators: filter (with true/false streams), join, project.

The operators work on :class:`~repro.bypass.streams.StreamSet` objects: each
stream is a one-slice :class:`~repro.core.tagged_relation.TaggedRelation`
that a filter splits by copying rows into new streams and a join pairs with
one hash table per stream pair (:func:`repro.core.operators.hash_join`, the
tagged join's own kernel).  Tags are used only at plan/operator level to
decide which streams may bypass an operator or be discarded outright; the
data path itself is the conventional one (copying index rows between
streams, one hash table per stream pair), which is precisely what separates
the bypass technique from tagged execution.

Each class is a :class:`~repro.physical.base.PhysicalOperator`; ``execute(...)``
is the whole-stream-set kernel, callable on its own without children.
"""

from __future__ import annotations

import numpy as np

from repro.bypass.streams import StreamSet
from repro.core.generalize import generalize_tag, refutes_root, satisfies_root
from repro.core.operators import hash_join, joined_relation
from repro.core.predtree import PredicateTree
from repro.core.tagged_relation import TaggedRelation
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
from repro.physical.expressions import evaluate_predicate
from repro.plan.query import JoinCondition
from repro.storage.bitmap import Bitmap


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
        for tag, stream in streams.items():
            if self._should_bypass(tag):
                output.add(stream)
                continue
            self._split_stream(tag, stream, output, context)
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
        self, tag: Tag, stream: TaggedRelation, output: StreamSet, context: ExecContext
    ) -> None:
        truth = evaluate_predicate(
            self.predicate,
            stream.tables,
            stream.indices,
            context,
            description="bypass filter",
        )
        context.metrics.predicate_evaluations += 1
        context.metrics.predicate_rows_evaluated += stream.num_rows

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
            out_tag = self._generalize(tag.with_assignment(predicate_key, value))
            if out_tag is None:
                continue
            context.metrics.tuples_materialized += int(positions.size)
            output.add(stream.take(positions, out_tag))

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
        for left_tag, left_stream in left.items():
            for right_tag, right_stream in right.items():
                combined = self._combine_tags(left_tag, right_tag)
                if combined is None:
                    continue
                # Each stream pair builds its own hash table: this is the
                # per-pair work the shared hash table of tagged execution
                # amortizes away.  (Empty join results are dropped by add.)
                left_rows, right_rows = hash_join(
                    self.conditions, left_stream, right_stream, None, None, context
                )
                slices = {combined: Bitmap.full(int(left_rows.size))}
                output.add(
                    joined_relation(
                        left_stream, right_stream, left_rows, right_rows, slices, context
                    )
                )
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
        accepted: list[TaggedRelation] = []
        for tag, stream in streams.items():
            relation = self._accept(tag, stream, context)
            if relation is not None:
                accepted.append(relation)

        if not accepted:
            # A zero-match execution must still emit the output schema:
            # downstream aggregation (COUNT = 0 / NULL extremes) and sharded
            # partial aggregation need the column names and dtypes.  The
            # compiler supplies the alias -> table map; when this operator
            # was built by hand without one, fall back to a rejected
            # stream (which spans the full alias set at the root), and only
            # a schema-less empty when no stream arrived.
            if self.alias_tables is not None:
                return materialize_empty_output(
                    self.alias_tables, list(self.alias_tables), self.select
                )
            for stream in streams:
                return materialize_empty_output(stream.tables, stream.indices, self.select)
            return OutputColumns.empty()

        final = TaggedRelation.merge(accepted)
        positions = np.arange(final.num_rows, dtype=np.int64)
        context.metrics.output_rows += final.num_rows
        return materialize_output(final.tables, final.indices, positions, self.select)

    def _accept(
        self, tag: Tag, stream: TaggedRelation, context: ExecContext
    ) -> TaggedRelation | None:
        if self.tree is None or satisfies_root(self.tree, tag):
            return stream
        if refutes_root(self.tree, tag, include_unknown=True):
            return None
        # Undetermined: fall back to evaluating the full residual predicate.
        truth = evaluate_predicate(
            self.tree.expression,
            stream.tables,
            stream.indices,
            context,
            description="residual",
        )
        context.metrics.residual_rows_evaluated += stream.num_rows
        keep = np.flatnonzero(tv.is_true(truth))
        if keep.size == 0:
            return None
        return stream.take(keep, tag)
