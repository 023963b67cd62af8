"""Implication between base predicates on the same column.

The paper's worked example (Figure 1 / Section 2.2) relies on the planner
recognizing that ``t.year > 2000`` implies ``t.year > 1980`` and that
``mi_idx.score > 8.0`` implies ``mi_idx.score > 7.0``: the second filter on a
table skips slices whose tag already determines its outcome, and the join's
output tags generalize all the way to the root without any residual work.
Boolean propagation alone (Algorithm 1) cannot see this — it is value-level
reasoning about comparison predicates — so this module provides a small,
conservative implication checker used by tag generalization and tag-map
construction.

Everything here is *sound but incomplete*: ``implies``/``refutes`` only
return True when the implication provably holds for comparisons, BETWEEN and
IN predicates over the same single column; in all other cases they return
False and the engine simply falls back to evaluating the predicate.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.expr.ast import (
    BetweenPredicate,
    BooleanExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    Literal,
)
from repro.expr.three_valued import FALSE, TRUE, TruthValue

#: Comparison operator obtained by logically negating each operator.
_NEGATED_OP = {">": "<=", ">=": "<", "<": ">=", "<=": ">", "=": "!=", "!=": "="}


def _column_and_literal(expr: BooleanExpr) -> tuple[str, str, object] | None:
    """Decompose a comparison ``column <op> literal`` into (column key, op, value)."""
    if isinstance(expr, Comparison):
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            return expr.left.key(), expr.op, expr.right.value
        if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
            flipped = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "=": "=", "!=": "!="}
            return expr.right.key(), flipped[expr.op], expr.left.value
    return None


def _comparable(a: object, b: object) -> bool:
    """Whether two literal values can be ordered against each other."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return isinstance(a, str) and isinstance(b, str)


def negate(expr: BooleanExpr) -> BooleanExpr | None:
    """The logical negation of a base comparison, when expressible."""
    if isinstance(expr, Comparison):
        return Comparison(expr.left, _NEGATED_OP[expr.op], expr.right)
    return None


def _value_satisfies(value: object, op: str, bound: object) -> bool:
    """Whether ``value <op> bound`` holds for concrete literals."""
    if op == ">":
        return value > bound
    if op == ">=":
        return value >= bound
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == "=":
        return value == bound
    if op == "!=":
        return value != bound
    raise ValueError(f"unknown operator {op!r}")


def _interval_implies(p_op: str, a: object, q_op: str, b: object) -> bool:
    """Does ``x <p_op> a`` imply ``x <q_op> b`` for every x?"""
    if p_op == "=":
        return _value_satisfies(a, q_op, b)
    if p_op == "!=":
        return q_op == "!=" and a == b
    if p_op in (">", ">="):
        strict = p_op == ">"
        if q_op == ">":
            return a > b or (strict and a >= b)
        if q_op == ">=":
            return a >= b
        if q_op == "!=":
            return b < a or (strict and b <= a)
        return False
    if p_op in ("<", "<="):
        strict = p_op == "<"
        if q_op == "<":
            return a < b or (strict and a <= b)
        if q_op == "<=":
            return a <= b
        if q_op == "!=":
            return b > a or (strict and b >= a)
        return False
    return False


def _predicate_values(expr: BooleanExpr) -> tuple[str, list[object]] | None:
    """For IN/equality predicates, the column key and the finite value set."""
    if isinstance(expr, InPredicate) and isinstance(expr.operand, ColumnRef):
        return expr.operand.key(), list(expr.values)
    decomposed = _column_and_literal(expr)
    if decomposed is not None and decomposed[1] == "=":
        return decomposed[0], [decomposed[2]]
    return None


def _predicate_interval(expr: BooleanExpr) -> tuple[str, str, object] | None:
    """For comparison-like predicates, the (column, op, bound) form."""
    decomposed = _column_and_literal(expr)
    if decomposed is not None:
        return decomposed
    return None


def implies(p: BooleanExpr, q: BooleanExpr) -> bool:
    """Conservatively decide whether ``p`` being TRUE forces ``q`` to be TRUE."""
    if p.key() == q.key():
        return True

    # BETWEEN on the left decomposes into two comparisons.
    if isinstance(p, BetweenPredicate) and isinstance(p.operand, ColumnRef):
        if isinstance(p.low, Literal) and isinstance(p.high, Literal):
            lower = Comparison(p.operand, ">=", p.low)
            upper = Comparison(p.operand, "<=", p.high)
            return implies(lower, q) or implies(upper, q)
        return False

    # Finite-value predicates (equality / IN): check every value against q.
    finite = _predicate_values(p)
    if finite is not None:
        column, values = finite
        q_interval = _predicate_interval(q)
        if q_interval is not None and q_interval[0] == column:
            _, q_op, bound = q_interval
            return all(
                _comparable(value, bound) and _value_satisfies(value, q_op, bound)
                for value in values
            )
        q_finite = _predicate_values(q)
        if q_finite is not None and q_finite[0] == column:
            return set(values) <= set(q_finite[1])
        return False

    p_interval = _predicate_interval(p)
    q_interval = _predicate_interval(q)
    if p_interval is None or q_interval is None:
        return False
    if p_interval[0] != q_interval[0]:
        return False
    _, p_op, a = p_interval
    _, q_op, b = q_interval
    if not _comparable(a, b):
        return False
    return _interval_implies(p_op, a, q_op, b)


def refutes(p: BooleanExpr, q: BooleanExpr) -> bool:
    """Conservatively decide whether ``p`` being TRUE forces ``q`` to be FALSE."""
    negated = negate(q)
    if negated is not None:
        return implies(p, negated)
    # q is not a plain comparison; handle finite-value q directly.
    q_finite = _predicate_values(q)
    p_finite = _predicate_values(p)
    if q_finite is not None and p_finite is not None and q_finite[0] == p_finite[0]:
        # A NULL entry makes q UNKNOWN, never FALSE, on the values it lacks.
        return None not in q_finite[1] and not (set(p_finite[1]) & set(q_finite[1]))
    # An interval p excluding every value a finite q allows is not decided
    # here; stay conservative.
    return False


def implication_group(expr: BooleanExpr) -> object | None:
    """What a base predicate constrains, for pairing up candidates.

    Two *different* base predicates can only imply or refute one another
    when their groups are equal: every rule above compares predicates over
    one column, except the negation-by-key rule, which needs the same two
    comparison operands.  ``None`` means the predicate takes part in no
    implication at all.
    """
    if isinstance(expr, Comparison):
        decomposed = _column_and_literal(expr)
        if decomposed is not None:
            return decomposed[0]
        return (expr.left.key(), expr.right.key())
    if isinstance(expr, (InPredicate, BetweenPredicate)) and isinstance(expr.operand, ColumnRef):
        return expr.operand.key()
    return None


def implied_truth_value(
    target: BooleanExpr,
    facts: Iterable[tuple[BooleanExpr, TruthValue]],
) -> TruthValue | None:
    """Truth value of ``target`` forced by the given facts, if any.

    ``facts`` are (base predicate, assigned truth value) pairs; FALSE facts
    contribute through their negations.  Returns None when nothing can be
    concluded.
    """
    for expr, value in facts:
        if value is TRUE:
            known = expr
        elif value is FALSE:
            known = negate(expr)
            if known is None:
                continue
        else:
            continue
        if implies(known, target):
            return TRUE
        if refutes(known, target):
            return FALSE
    return None
