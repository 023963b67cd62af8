"""A naive reference evaluator for select-project-join queries.

The oracle deliberately shares *no* code with the engine's vectorized
evaluation path: predicates are evaluated row at a time with a small scalar
interpreter, and joins are computed with plain Python dictionaries.  It is
slow, which does not matter — its only job is to provide an independent
answer for differential testing.
"""

from __future__ import annotations

import re

import numpy as np

from repro.expr.ast import (
    AndExpr,
    BetweenPredicate,
    BooleanExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
    Literal,
    NotExpr,
    OrExpr,
    ValueExpr,
)
from repro.expr.three_valued import FALSE, TRUE, UNKNOWN, TruthValue
from repro.plan.query import Query
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class OracleError(ValueError):
    """Raised when the oracle is asked to evaluate something it cannot."""


# --------------------------------------------------------------------------- #
# Scalar expression evaluation
# --------------------------------------------------------------------------- #
def _value_of(expr: ValueExpr, row: dict[tuple[str, str], object]) -> object:
    if isinstance(expr, ColumnRef):
        try:
            return row[(expr.alias, expr.column)]
        except KeyError:
            raise OracleError(f"row does not contain column {expr.key()}") from None
    if isinstance(expr, Literal):
        return expr.value
    raise OracleError(f"unsupported value expression {expr!r}")


def _compare(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise OracleError(f"unsupported comparison operator {op!r}")


def _like_matches(value: object, pattern: str, case_insensitive: bool) -> bool:
    regex_parts = ["^"]
    for char in pattern:
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(char))
    regex_parts.append("$")
    flags = re.IGNORECASE if case_insensitive else 0
    return re.search("".join(regex_parts), str(value), flags) is not None


def evaluate_predicate_row(
    expr: BooleanExpr, row: dict[tuple[str, str], object]
) -> TruthValue:
    """Evaluate a boolean expression for one row under SQL three-valued logic.

    ``row`` maps ``(alias, column)`` to a Python value; NULL is ``None``.
    """
    if isinstance(expr, AndExpr):
        result = TRUE
        for child in expr.children():
            value = evaluate_predicate_row(child, row)
            if value is FALSE:
                return FALSE
            if value is UNKNOWN:
                result = UNKNOWN
        return result

    if isinstance(expr, OrExpr):
        result = FALSE
        for child in expr.children():
            value = evaluate_predicate_row(child, row)
            if value is TRUE:
                return TRUE
            if value is UNKNOWN:
                result = UNKNOWN
        return result

    if isinstance(expr, NotExpr):
        value = evaluate_predicate_row(expr.child, row)
        if value is UNKNOWN:
            return UNKNOWN
        return FALSE if value is TRUE else TRUE

    if isinstance(expr, IsNullPredicate):
        operand = _value_of(expr.operand, row)
        matched = operand is None
        if expr.negated:
            matched = not matched
        return TRUE if matched else FALSE

    if isinstance(expr, Comparison):
        left = _value_of(expr.left, row)
        right = _value_of(expr.right, row)
        if left is None or right is None:
            return UNKNOWN
        return TruthValue.from_bool(_compare(expr.op, left, right))

    if isinstance(expr, LikePredicate):
        operand = _value_of(expr.operand, row)
        if operand is None:
            return UNKNOWN
        return TruthValue.from_bool(
            _like_matches(operand, expr.pattern, expr.case_insensitive)
        )

    if isinstance(expr, InPredicate):
        operand = _value_of(expr.operand, row)
        if operand is None:
            return UNKNOWN
        if operand in expr.values:
            return TRUE
        return UNKNOWN if None in expr.values else FALSE

    if isinstance(expr, BetweenPredicate):
        operand = _value_of(expr.operand, row)
        low = _value_of(expr.low, row)
        high = _value_of(expr.high, row)
        if operand is None or low is None or high is None:
            return UNKNOWN
        return TruthValue.from_bool(low <= operand <= high)

    raise OracleError(f"unsupported predicate type {type(expr).__name__}")


# --------------------------------------------------------------------------- #
# Join enumeration
# --------------------------------------------------------------------------- #
def _table_value(table: Table, column: str, position: int) -> object:
    col = table.column(column)
    if col.null_mask[position]:
        return None
    value = col.data[position]
    return value.item() if hasattr(value, "item") else value


def _all_rows(table: Table) -> list[int]:
    # Logically deleted rows (see repro.mutation) are invisible to queries,
    # so the oracle skips them the same way the physical scan does.
    if table.has_deletes():
        return [int(row) for row in np.flatnonzero(~table.delete_mask)]
    return list(range(table.num_rows))


def _join_assignments(query: Query, catalog: Catalog) -> list[dict[str, int]]:
    """Enumerate all alias->row assignments satisfying the join conditions."""
    tables = {alias: catalog.get(name) for alias, name in query.tables.items()}
    aliases = list(query.tables)

    first = aliases[0]
    assignments: list[dict[str, int]] = [{first: row} for row in _all_rows(tables[first])]
    bound = {first}
    remaining_conditions = list(query.join_conditions)

    while remaining_conditions:
        progressed = False
        for condition in list(remaining_conditions):
            condition_aliases = condition.aliases()
            if condition_aliases <= bound:
                # Both sides bound already: filter the current assignments.
                left_ref, right_ref = condition.left, condition.right
                assignments = [
                    assignment
                    for assignment in assignments
                    if _table_value(tables[left_ref.alias], left_ref.column, assignment[left_ref.alias])
                    is not None
                    and _table_value(tables[left_ref.alias], left_ref.column, assignment[left_ref.alias])
                    == _table_value(tables[right_ref.alias], right_ref.column, assignment[right_ref.alias])
                ]
                remaining_conditions.remove(condition)
                progressed = True
                continue
            bound_side = [alias for alias in condition_aliases if alias in bound]
            if not bound_side:
                continue
            bound_alias = bound_side[0]
            new_alias = condition.other_alias(bound_alias)
            bound_ref = condition.side_for(bound_alias)
            new_ref = condition.side_for(new_alias)

            index: dict[object, list[int]] = {}
            new_table = tables[new_alias]
            for row in _all_rows(new_table):
                key = _table_value(new_table, new_ref.column, row)
                if key is None:
                    continue
                index.setdefault(key, []).append(row)

            extended: list[dict[str, int]] = []
            bound_table = tables[bound_alias]
            for assignment in assignments:
                key = _table_value(bound_table, bound_ref.column, assignment[bound_alias])
                if key is None:
                    continue
                for row in index.get(key, ()):  # NULL keys never join
                    new_assignment = dict(assignment)
                    new_assignment[new_alias] = row
                    extended.append(new_assignment)
            assignments = extended
            bound.add(new_alias)
            remaining_conditions.remove(condition)
            progressed = True
        if not progressed:
            raise OracleError("join graph is not connected through the bound aliases")

    # Cross-join any aliases that had no join condition at all.
    for alias in aliases:
        if alias in bound:
            continue
        extended = []
        for assignment in assignments:
            for row in _all_rows(tables[alias]):
                new_assignment = dict(assignment)
                new_assignment[alias] = row
                extended.append(new_assignment)
        assignments = extended
        bound.add(alias)

    return assignments


# --------------------------------------------------------------------------- #
# Full query evaluation
# --------------------------------------------------------------------------- #
def evaluate_oracle(catalog: Catalog, query: Query) -> list[tuple]:
    """Evaluate a select-project-join query the slow, obviously-correct way.

    Returns the output rows sorted with the same key
    :meth:`repro.engine.result.QueryResult.sorted_rows` uses, so the two can
    be compared directly.  Output-shaping clauses (aggregates, DISTINCT,
    ORDER BY, LIMIT) are not supported — differential testing targets the
    part of the pipeline where the execution models actually differ.
    """
    if query.has_output_shaping:
        raise OracleError("the oracle only evaluates plain select-project-join queries")

    tables = {alias: catalog.get(name) for alias, name in query.tables.items()}
    if query.select:
        wanted = [(column.alias, column.column) for column in query.select]
    else:
        wanted = [
            (alias, column_name)
            for alias in sorted(query.tables)
            for column_name in tables[alias].column_names
        ]

    rows: list[tuple] = []
    for assignment in _join_assignments(query, catalog):
        if query.predicate is not None:
            row_values = {
                (alias, column_name): _table_value(tables[alias], column_name, position)
                for alias, position in assignment.items()
                for column_name in tables[alias].column_names
            }
            if evaluate_predicate_row(query.predicate, row_values) is not TRUE:
                continue
        rows.append(
            tuple(
                _table_value(tables[alias], column_name, assignment[alias])
                for alias, column_name in wanted
            )
        )

    return sorted(rows, key=lambda row: tuple(str(value) for value in row))
