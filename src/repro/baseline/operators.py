"""Traditional execution operators: filter, hash join, union.

These mirror the tagged operators but work on whole relations: a filter keeps
only the rows whose predicate evaluates to TRUE (compacting the relation), a
join processes every row of both inputs, and BDisj's final union deduplicates
tuples produced by different root-clause subqueries (the redundant work the
paper's Section 5.1 analysis attributes to traditional execution).
"""

from __future__ import annotations

import numpy as np

from repro.baseline.relation import Relation
from repro.engine.metrics import ExecContext
from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr
from repro.physical.expressions import evaluate_predicate, read_join_keys
from repro.plan.query import JoinCondition
from repro.storage.table import Table
from repro.utils.join import equi_join_indices


class FilterOperator:
    """Keep only the rows whose predicate evaluates to TRUE."""

    def __init__(self, predicate: BooleanExpr) -> None:
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


class HashJoinOperator:
    """Equi-join of two relations."""

    def __init__(self, conditions: list[JoinCondition]) -> None:
        if not conditions:
            raise ValueError("a hash join requires at least one join condition")
        self.conditions = list(conditions)

    def execute(self, left: Relation, right: Relation, context: ExecContext) -> Relation:
        """Run the join."""
        context.metrics.operators_executed += 1
        return join_relations(self.conditions, left, right, context)


class UnionOperator:
    """Union (with duplicate elimination) of relations over the same aliases.

    BDisj appends this operator to combine the outputs of its per-root-clause
    subqueries; deduplication is by the tuple of base-table row indices, which
    is exactly the identity of a joined tuple in an index relation.
    """

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
