"""Traditional execution operators: filter, hash join, union.

These mirror the tagged operators but work on whole relations: a filter keeps
only the rows whose predicate evaluates to TRUE (compacting the relation), a
join processes every row of both inputs, and BDisj's final union deduplicates
tuples produced by different root-clause subqueries (the redundant work the
paper's Section 5.1 analysis attributes to traditional execution).

Each class is a :class:`~repro.physical.base.PhysicalOperator`; ``execute(...)``
is the whole-relation kernel, callable on its own without children.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.relation import Relation
from repro.engine.metrics import ExecContext
from repro.engine.result import materialize_output
from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr
from repro.physical.base import BuildProbeJoin, PhysicalOperator, StreamingFilter
from repro.physical.expressions import evaluate_predicate, read_join_keys
from repro.plan.query import JoinCondition
from repro.storage.table import Table
from repro.utils.join import equi_join_indices


class FilterOperator(StreamingFilter):
    """Keep only the rows whose predicate evaluates to TRUE."""

    def __init__(self, predicate: BooleanExpr, child=None, node_id=None) -> None:
        super().__init__(child, node_id)
        self.predicate = predicate

    def execute(self, relation: Relation, context: ExecContext) -> Relation:
        """Run the filter."""
        context.metrics.operators_executed += 1
        if relation.num_rows == 0:
            return relation
        truth = evaluate_predicate(
            self.predicate, relation.tables, relation.indices, context
        )
        context.metrics.predicate_evaluations += 1
        context.metrics.predicate_rows_evaluated += relation.num_rows
        keep = np.flatnonzero(tv.is_true(truth))
        output = relation.take(keep)
        context.metrics.tuples_materialized += output.num_rows
        return output


def join_relations(
    conditions: list[JoinCondition],
    left: Relation,
    right: Relation,
    context: ExecContext,
) -> Relation:
    """Equi-join two plain relations: one hash table, built over the smaller.

    The pairwise join body the traditional hash join runs once per join and
    the bypass join once per stream pair.  An empty input yields an empty
    relation over both alias sets without building or reading anything.
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


class HashJoinOperator(BuildProbeJoin):
    """Equi-join of two relations."""

    def __init__(
        self, conditions: list[JoinCondition], build=None, probe=None, node_id=None
    ) -> None:
        if not conditions:
            raise ValueError("a hash join requires at least one join condition")
        super().__init__(build, probe, node_id)
        self.conditions = list(conditions)

    def execute(self, left: Relation, right: Relation, context: ExecContext) -> Relation:
        """Run the join."""
        context.metrics.operators_executed += 1
        return join_relations(self.conditions, left, right, context)


class UnionOperator(PhysicalOperator):
    """Traditional root: union the subplan pipelines, then materialize ``columns``.

    Children are the pipelines of a traditional plan's roots; each is
    drained fully (they are independent pipelines over the same partition) and
    emits into a single OutputColumns batch.  BDisj's union (``execute``)
    deduplicates by the tuple of base-table row indices, which is exactly the
    identity of a joined tuple in an index relation; a lone subplan needs no
    union and passes through.
    """

    label = "TraditionalProjectPhysical"

    def __init__(self, children=(), columns=()) -> None:
        super().__init__(list(children))
        self.columns = list(columns or [])
        self._done = False

    def open(self, context: ExecContext) -> None:
        super().open(context)
        self._done = False

    def _next(self, context: ExecContext):
        if self._done:
            return None
        self._done = True
        relations = [Relation.merge(child.drain()) for child in self.children]
        non_empty = [relation for relation in relations if relation.num_rows > 0]
        if len(relations) == 1 or not non_empty:
            final = relations[0]
        else:
            final = self.execute(non_empty, context)
        positions = np.arange(final.num_rows, dtype=np.int64)
        context.metrics.output_rows += final.num_rows
        if context.collect_feedback:
            self.record_rows(
                context, sum(relation.live_rows for relation in relations), final.num_rows
            )
        return materialize_output(final.tables, final.indices, positions, self.columns)

    def execute(self, relations: list[Relation], context: ExecContext) -> Relation:
        """Run the union."""
        context.metrics.operators_executed += 1
        relations = [relation for relation in relations if relation.num_rows > 0]
        if not relations:
            raise ValueError("union of zero non-empty relations is undefined")
        alias_sets = {frozenset(relation.indices) for relation in relations}
        if len(alias_sets) != 1:
            raise ValueError(f"union inputs cover different alias sets: {alias_sets}")

        total_input = sum(relation.num_rows for relation in relations)
        context.metrics.union_input_rows += total_input

        stacked = np.concatenate([relation.row_keys() for relation in relations], axis=0)
        _unique, first_positions = np.unique(stacked, axis=0, return_index=True)
        keep = np.sort(first_positions)

        aliases = sorted(relations[0].indices)
        merged_indices = {
            alias: np.concatenate([relation.indices[alias] for relation in relations])
            for alias in aliases
        }
        out_indices = {alias: merged_indices[alias][keep] for alias in aliases}
        merged_tables: dict[str, Table] = {}
        for relation in relations:
            merged_tables.update(relation.tables)

        output = Relation(merged_tables, out_indices)
        context.metrics.union_output_rows += output.num_rows
        context.metrics.tuples_materialized += output.num_rows
        return output
