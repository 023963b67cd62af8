"""Expression AST.

Two families of nodes:

* :class:`ValueExpr` — value-producing expressions (column references and
  literals).  Only what the workloads and JOB-style queries need.
* :class:`BooleanExpr` — truth-valued expressions.  Leaves are *base
  predicates* (comparisons, LIKE, IN, BETWEEN, IS NULL); interior nodes are
  AND / OR / NOT.

Every boolean expression has a canonical structural ``key()``.  Two
structurally identical subexpressions share the same key, which is how the
tagged-execution core recognizes that the same predicate subexpression
appears multiple times in a query (Section 3.2, "Duplicates").
"""

from __future__ import annotations

import numbers
import re
from collections.abc import Sequence

import numpy as np

from repro.expr import three_valued as tv
from repro.expr.eval import RowBatch


class ExprError(ValueError):
    """Raised for malformed expressions."""


# --------------------------------------------------------------------------- #
# Value expressions
# --------------------------------------------------------------------------- #
class ValueExpr:
    """Base class of value-producing expressions.

    Nodes are immutable, so :meth:`tables` and :meth:`key` memoize on first
    call (both sit on the per-clause, per-morsel hot path); subclasses
    implement ``_tables`` / ``_key``.
    """

    def tables(self) -> frozenset[str]:
        """Set of table aliases referenced by this expression (memoized)."""
        cached = self.__dict__.get("_tables_cache")
        if cached is None:
            cached = self._tables()
            self.__dict__["_tables_cache"] = cached
        return cached

    def key(self) -> str:
        """Canonical structural key (memoized)."""
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            cached = self._key()
            self.__dict__["_key_cache"] = cached
        return cached

    def _tables(self) -> frozenset[str]:
        raise NotImplementedError

    def _key(self) -> str:
        raise NotImplementedError

    def evaluate(self, batch: RowBatch) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, nulls)`` aligned with the batch rows."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ValueExpr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class ColumnRef(ValueExpr):
    """A reference to ``alias.column``."""

    __slots__ = ("alias", "column")

    def __init__(self, alias: str, column: str) -> None:
        self.alias = alias
        self.column = column

    def _tables(self) -> frozenset[str]:
        return frozenset({self.alias})

    def _key(self) -> str:
        return f"{self.alias}.{self.column}"

    def evaluate(self, batch: RowBatch) -> tuple[np.ndarray, np.ndarray]:
        return batch.column(self.alias, self.column)


class Literal(ValueExpr):
    """A constant value (int, float, str, bool or None)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def _tables(self) -> frozenset[str]:
        return frozenset()

    def _key(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)

    def evaluate(self, batch: RowBatch) -> tuple[np.ndarray, np.ndarray]:
        size = batch.num_rows
        if self.value is None:
            return np.zeros(size), np.ones(size, dtype=np.bool_)
        return np.full(size, self.scalar()), np.zeros(size, dtype=np.bool_)

    def scalar(self) -> np.ndarray:
        """The non-NULL value as a 0-d array of the dtype :meth:`evaluate` fills.

        A comparison against it broadcasts exactly like one against the
        full-width array (same dtype, so the same promotion: ±2**70 stays an
        object, 2**63 a ``uint64``), without building that array or its
        all-False NULL mask.
        """
        return np.asarray(self.value, dtype=object if isinstance(self.value, str) else None)


def _scalar_operand(value: ValueExpr) -> np.ndarray | None:
    """``value``'s 0-d array when it is a non-NULL literal, else ``None``."""
    if isinstance(value, Literal) and value.value is not None:
        return value.scalar()
    return None


# --------------------------------------------------------------------------- #
# Boolean expressions
# --------------------------------------------------------------------------- #
class BooleanExpr:
    """Base class of truth-valued expressions.

    Nodes are immutable, so :meth:`tables` and :meth:`key` memoize on first
    call; subclasses implement ``_tables`` / ``_key``.  Subclass ``__slots__``
    do not prevent this — the slot-less base class gives every instance a
    ``__dict__`` to cache into.
    """

    def tables(self) -> frozenset[str]:
        """Set of table aliases referenced anywhere below this node (memoized)."""
        cached = self.__dict__.get("_tables_cache")
        if cached is None:
            cached = self._tables()
            self.__dict__["_tables_cache"] = cached
        return cached

    def key(self) -> str:
        """Canonical structural key (memoized; identical subexpressions share keys)."""
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            cached = self._key()
            self.__dict__["_key_cache"] = cached
        return cached

    def _tables(self) -> frozenset[str]:
        raise NotImplementedError

    def _key(self) -> str:
        raise NotImplementedError

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        """Truth-value array (uint8, see :mod:`repro.expr.three_valued`)."""
        raise NotImplementedError

    def children(self) -> tuple["BooleanExpr", ...]:
        """Child boolean expressions (empty for base predicates)."""
        return ()

    def is_base_predicate(self) -> bool:
        """True for leaves of the predicate tree."""
        return not self.children()

    def __repr__(self) -> str:
        return self.key()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BooleanExpr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}
_INT64 = np.iinfo(np.int64)


def _compare(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise comparison returning a boolean mask."""
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
    raise ExprError(f"unknown comparison operator {op!r}")


class Comparison(BooleanExpr):
    """``left <op> right`` where op is one of =, !=, <, <=, >, >=."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: ValueExpr, op: str, right: ValueExpr) -> None:
        if op not in _COMPARISON_OPS:
            raise ExprError(f"unsupported comparison operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def _tables(self) -> frozenset[str]:
        return self.left.tables() | self.right.tables()

    def _key(self) -> str:
        return f"({self.left.key()} {self.op} {self.right.key()})"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        left_values, left_nulls = self.left.evaluate(batch)
        scalar = _scalar_operand(self.right)
        if scalar is not None:
            return tv.from_bool_array(_compare(self.op, left_values, scalar), left_nulls)
        right_values, right_nulls = self.right.evaluate(batch)
        mask = _compare(self.op, left_values, right_values)
        nulls = left_nulls | right_nulls
        return tv.from_bool_array(mask, nulls)


class LikePredicate(BooleanExpr):
    """SQL LIKE / ILIKE pattern matching against a string column."""

    __slots__ = ("operand", "pattern", "case_insensitive", "_regex")

    def __init__(self, operand: ValueExpr, pattern: str, case_insensitive: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.case_insensitive = case_insensitive
        self._regex = re.compile(
            self._pattern_to_regex(pattern), re.IGNORECASE if case_insensitive else 0
        )

    @property
    def regex(self) -> re.Pattern:
        """The compiled (anchored) regex equivalent of the LIKE pattern."""
        return self._regex

    @staticmethod
    def _pattern_to_regex(pattern: str) -> str:
        """Translate a SQL LIKE pattern into an anchored regex."""
        out = ["^"]
        for char in pattern:
            if char == "%":
                out.append(".*")
            elif char == "_":
                out.append(".")
            else:
                out.append(re.escape(char))
        out.append("$")
        return "".join(out)

    def _tables(self) -> frozenset[str]:
        return self.operand.tables()

    def _key(self) -> str:
        op = "ILIKE" if self.case_insensitive else "LIKE"
        return f"({self.operand.key()} {op} '{self.pattern}')"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        values, nulls = self.operand.evaluate(batch)
        regex = self._regex
        mask = np.fromiter(
            (bool(regex.search(str(value))) for value in values),
            dtype=np.bool_,
            count=len(values),
        )
        return tv.from_bool_array(mask, nulls)


class InPredicate(BooleanExpr):
    """``operand IN (v1, v2, ...)`` against literal values."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: ValueExpr, values: Sequence) -> None:
        if not values:
            raise ExprError("IN predicate requires at least one value")
        self.operand = operand
        self.values = tuple(values)

    def _tables(self) -> frozenset[str]:
        return self.operand.tables()

    def _key(self) -> str:
        rendered = ", ".join(
            f"'{value}'" if isinstance(value, str) else repr(value) for value in self.values
        )
        return f"({self.operand.key()} IN ({rendered}))"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        values, nulls = self.operand.evaluate(batch)
        return tv.from_bool_array(self.matches(values), nulls)

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Whether each of ``values`` equals a listed literal, as Python's ``in`` decides.

        The list is never cast into the values' dtype: a literal of another
        kind (a string against numbers, ``1.5`` against integers) matches
        nothing, and a ``NULL`` entry never matches.
        """
        if values.dtype.kind == "O":
            kept, dtype = [value for value in self.values if isinstance(value, str)], object
        else:
            kept = [value for value in self.values if isinstance(value, numbers.Real)]
            dtype = np.float64
            if values.dtype.kind in "iub":
                # An integer equals only the literals that are whole int64 values.
                kept = [
                    int(value) for value in kept
                    if _INT64.min <= value <= _INT64.max and value == int(value)
                ]
                dtype = np.int64
        if not kept:
            return np.zeros(values.shape, dtype=np.bool_)
        return np.isin(values, np.array(kept, dtype=dtype))


class BetweenPredicate(BooleanExpr):
    """``operand BETWEEN low AND high`` (inclusive bounds)."""

    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: ValueExpr, low: ValueExpr, high: ValueExpr) -> None:
        self.operand = operand
        self.low = low
        self.high = high

    def _tables(self) -> frozenset[str]:
        return self.operand.tables() | self.low.tables() | self.high.tables()

    def _key(self) -> str:
        return f"({self.operand.key()} BETWEEN {self.low.key()} AND {self.high.key()})"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        values, nulls = self.operand.evaluate(batch)
        low, high = _scalar_operand(self.low), _scalar_operand(self.high)
        if low is not None and high is not None:
            return tv.from_bool_array((values >= low) & (values <= high), nulls)
        low_values, low_nulls = self.low.evaluate(batch)
        high_values, high_nulls = self.high.evaluate(batch)
        mask = (values >= low_values) & (values <= high_values)
        return tv.from_bool_array(mask, nulls | low_nulls | high_nulls)


class IsNullPredicate(BooleanExpr):
    """``operand IS [NOT] NULL`` — always two-valued."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: ValueExpr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def _tables(self) -> frozenset[str]:
        return self.operand.tables()

    def _key(self) -> str:
        return f"({self.operand.key()} IS {'NOT ' if self.negated else ''}NULL)"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        _values, nulls = self.operand.evaluate(batch)
        mask = ~nulls if self.negated else nulls
        return tv.from_bool_array(mask, None)


class NotExpr(BooleanExpr):
    """Logical negation."""

    __slots__ = ("child",)

    def __init__(self, child: BooleanExpr) -> None:
        self.child = child

    def _tables(self) -> frozenset[str]:
        return self.child.tables()

    def _key(self) -> str:
        return f"(NOT {self.child.key()})"

    def children(self) -> tuple[BooleanExpr, ...]:
        return (self.child,)

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        return tv.logical_not(self.child.evaluate(batch))


class _NaryExpr(BooleanExpr):
    """Shared implementation of AND/OR nodes."""

    _CONNECTIVE = ""

    __slots__ = ("_children",)

    def __init__(self, children: Sequence[BooleanExpr]) -> None:
        if len(children) < 2:
            raise ExprError(
                f"{type(self).__name__} requires at least two children, got {len(children)}"
            )
        self._children = tuple(children)

    def _tables(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for child in self._children:
            result |= child.tables()
        return result

    def children(self) -> tuple[BooleanExpr, ...]:
        return self._children

    def _key(self) -> str:
        # Child keys are sorted so that commutative rearrangements of the
        # same subexpressions produce the same canonical key.
        child_keys = sorted(child.key() for child in self._children)
        connective = f" {self._CONNECTIVE} "
        return f"({connective.join(child_keys)})"


class AndExpr(_NaryExpr):
    """N-ary conjunction."""

    _CONNECTIVE = "AND"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        return tv.and_all([child.evaluate(batch) for child in self._children])


class OrExpr(_NaryExpr):
    """N-ary disjunction."""

    _CONNECTIVE = "OR"

    def evaluate(self, batch: RowBatch) -> np.ndarray:
        return tv.or_all([child.evaluate(batch) for child in self._children])


# --------------------------------------------------------------------------- #
# Structural helpers
# --------------------------------------------------------------------------- #
def flatten(expr: BooleanExpr) -> BooleanExpr:
    """Normalize an expression: AND-under-AND and OR-under-OR are merged.

    The paper's predicate trees require that no interior node has a parent of
    the same type (Section 3.2, footnote 3).  Double negations are also
    collapsed.
    """
    if isinstance(expr, NotExpr):
        child = flatten(expr.child)
        if isinstance(child, NotExpr):
            return child.child
        return NotExpr(child)
    if isinstance(expr, (AndExpr, OrExpr)):
        node_type = type(expr)
        merged: list[BooleanExpr] = []
        for child in expr.children():
            child = flatten(child)
            if isinstance(child, node_type):
                merged.extend(child.children())
            else:
                merged.append(child)
        if len(merged) == 1:
            return merged[0]
        return node_type(merged)
    return expr


def iter_base_predicates(expr: BooleanExpr):
    """Yield every base-predicate occurrence below ``expr`` (with repeats)."""
    if expr.is_base_predicate():
        yield expr
        return
    for child in expr.children():
        yield from iter_base_predicates(child)


def count_nodes(expr: BooleanExpr) -> int:
    """Total number of AST nodes below and including ``expr``."""
    return 1 + sum(count_nodes(child) for child in expr.children())
