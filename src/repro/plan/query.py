"""Bound query descriptions.

A :class:`Query` is the planner-facing description of a SELECT statement:
the tables it references (alias -> table name), the equi-join conditions
connecting them, the WHERE predicate expression, and the projection list.
It can be produced either by the SQL front end (:mod:`repro.sql`) or
programmatically by the workload generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.expr.ast import (
    BetweenPredicate,
    BooleanExpr,
    ColumnRef,
    Comparison,
    ExprError,
    InPredicate,
    LikePredicate,
    ValueExpr,
    flatten,
    iter_base_predicates,
)
from repro.plan.postselect import AggregateSpec, OrderItem
from repro.storage.column import ColumnType

#: Comparison operators that order their operands.
_ORDERING_OPS = frozenset({"<", "<=", ">", ">="})


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join condition ``left.column = right.column``."""

    left: ColumnRef
    right: ColumnRef

    def aliases(self) -> frozenset[str]:
        """The two table aliases this condition connects."""
        return frozenset({self.left.alias, self.right.alias})

    def key(self) -> str:
        """Canonical key (orientation-insensitive)."""
        sides = sorted([self.left.key(), self.right.key()])
        return f"({sides[0]} = {sides[1]})"

    def side_for(self, alias: str) -> ColumnRef:
        """The column reference belonging to ``alias``."""
        if self.left.alias == alias:
            return self.left
        if self.right.alias == alias:
            return self.right
        raise KeyError(f"join condition {self.key()} does not involve alias {alias!r}")

    def other_alias(self, alias: str) -> str:
        """The alias on the opposite side of ``alias``."""
        if self.left.alias == alias:
            return self.right.alias
        if self.right.alias == alias:
            return self.left.alias
        raise KeyError(f"join condition {self.key()} does not involve alias {alias!r}")

    def __str__(self) -> str:
        return f"{self.left.key()} = {self.right.key()}"


@dataclass
class Query:
    """A bound query.

    Attributes:
        tables: mapping of alias -> base table name.
        join_conditions: equi-join conditions between aliases.
        predicate: the WHERE expression (``None`` means no WHERE clause).
        select: columns materialized by the execution engine; empty means
            ``SELECT *``.  For aggregate queries this is the set of physical
            columns the aggregates and GROUP BY need.
        name: optional identifier used by workloads and reports.
        distinct: apply DISTINCT to the output rows.
        aggregates: aggregate specifications (empty for plain queries).
        group_by: grouping columns (must be non-empty only with aggregates).
        order_by: output ordering keys.
        limit: maximum number of output rows (``None`` means no limit).
    """

    tables: dict[str, str]
    join_conditions: list[JoinCondition] = field(default_factory=list)
    predicate: BooleanExpr | None = None
    select: list[ColumnRef] = field(default_factory=list)
    name: str = ""
    distinct: bool = False
    aggregates: list[AggregateSpec] = field(default_factory=list)
    group_by: list[ColumnRef] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("a query must reference at least one table")
        if self.predicate is not None:
            self.predicate = flatten(self.predicate)
        if self.limit is not None and self.limit < 0:
            raise ValueError("LIMIT must be non-negative")
        if self.group_by and not self.aggregates:
            raise ValueError("GROUP BY requires at least one aggregate in the SELECT list")
        self._validate_aliases()

    def _validate_aliases(self) -> None:
        known = set(self.tables)
        for condition in self.join_conditions:
            missing = condition.aliases() - known
            if missing:
                raise ValueError(
                    f"join condition {condition} references unknown aliases {sorted(missing)}"
                )
        if self.predicate is not None:
            missing = self.predicate.tables() - known
            if missing:
                raise ValueError(
                    f"predicate references unknown aliases {sorted(missing)}"
                )
        for column in self.select:
            if column.alias not in known:
                raise ValueError(f"projection column {column.key()} has unknown alias")
        for column in self.group_by:
            if column.alias not in known:
                raise ValueError(f"GROUP BY column {column.key()} has unknown alias")
        for aggregate in self.aggregates:
            if aggregate.argument is not None and aggregate.argument.alias not in known:
                raise ValueError(
                    f"aggregate argument {aggregate.argument.key()} has unknown alias"
                )

    def check_ordering_types(self, catalog) -> None:
        """Raise :class:`~repro.expr.ast.ExprError` for an ordering comparison
        (``<`` ``<=`` ``>`` ``>=``, and BETWEEN's bounds) between a string
        and a number.

        Such a comparison has no answer; without this check it surfaces as a
        bare ``TypeError`` from NumPy in the middle of statistics sampling.
        ``=`` and ``!=`` across types are left alone (they are simply false).
        """
        if self.predicate is None:
            return
        for predicate in iter_base_predicates(self.predicate):
            if isinstance(predicate, Comparison) and predicate.op in _ORDERING_OPS:
                sides = [(predicate.left, predicate.op, predicate.right)]
            elif isinstance(predicate, BetweenPredicate):
                sides = [
                    (predicate.operand, ">=", predicate.low),
                    (predicate.operand, "<=", predicate.high),
                ]
            else:
                continue
            for left, op, right in sides:
                (left_kind, left_text), (right_kind, right_text) = (
                    self._operand(left, catalog), self._operand(right, catalog)
                )
                if left_kind and right_kind and left_kind != right_kind:
                    raise ExprError(
                        f"cannot order {left_text} {op} {right_text}: "
                        f"{left_kind} against {right_kind}"
                    )

    def check_join_key_types(self, catalog) -> None:
        """Raise :class:`~repro.expr.ast.ExprError` for a join condition
        between a string column and a number column.

        Such keys cannot be hashed together; without this check the join
        dies in NumPy with a bare ``TypeError``.
        """
        for condition in self.join_conditions:
            (left_kind, left_text), (right_kind, right_text) = (
                self._operand(condition.left, catalog), self._operand(condition.right, catalog)
            )
            if left_kind != right_kind:
                raise ExprError(
                    f"cannot join {left_text} = {right_text}: {left_kind} against {right_kind}"
                )

    def can_be_unknown(self, catalog) -> bool:
        """Whether some base predicate of the WHERE clause can be UNKNOWN on
        ``catalog``'s tables: one of its value operands is a NULL literal or
        a column holding a NULL.  ``IS NULL`` operands are exempt: that test
        is never UNKNOWN.

        Planning builds three-valued tag maps exactly when this holds; on
        NULL-free operands the two-valued ones have fewer tags and are
        equally correct.
        """
        if self.predicate is None:
            return False
        for predicate in iter_base_predicates(self.predicate):
            if isinstance(predicate, Comparison):
                operands = (predicate.left, predicate.right)
            elif isinstance(predicate, BetweenPredicate):
                operands = (predicate.operand, predicate.low, predicate.high)
            elif isinstance(predicate, (InPredicate, LikePredicate)):
                operands = (predicate.operand,)
            else:
                continue
            for operand in operands:
                if isinstance(operand, ColumnRef):
                    table = catalog.get(self.tables[operand.alias])
                    if table.column(operand.column).has_nulls():
                        return True
                elif operand.value is None:
                    return True
        return False

    def _operand(self, value: ValueExpr, catalog) -> tuple[str | None, str]:
        """An operand's kind (``"string"``, ``"number"``, ``None`` for NULL)
        and its description for an error message."""
        if isinstance(value, ColumnRef):
            ctype = catalog.get(self.tables[value.alias]).column(value.column).ctype
            kind = "string" if ctype is ColumnType.STRING else "number"
            return kind, f"{ctype.value} column {value.key()}"
        if value.value is None:
            return None, "NULL"
        return ("string" if isinstance(value.value, str) else "number"), f"literal {value.key()}"

    # ------------------------------------------------------------------ #
    # Output shaping
    # ------------------------------------------------------------------ #
    @property
    def has_output_shaping(self) -> bool:
        """True when any post-projection clause must run."""
        return bool(
            self.distinct
            or self.aggregates
            or self.group_by
            or self.order_by
            or self.limit is not None
        )

    def output_names(self) -> list[str]:
        """Names of the final output columns, in order."""
        if self.aggregates:
            names = [column.key() for column in self.group_by]
            names.extend(aggregate.label() for aggregate in self.aggregates)
            return names
        if self.select:
            return [column.key() for column in self.select]
        return []

    @property
    def aliases(self) -> list[str]:
        """All table aliases in declaration order."""
        return list(self.tables)

    def base_predicates(self) -> list[BooleanExpr]:
        """Distinct base predicates appearing in the WHERE expression."""
        if self.predicate is None:
            return []
        seen: dict[str, BooleanExpr] = {}
        for predicate in iter_base_predicates(self.predicate):
            seen.setdefault(predicate.key(), predicate)
        return list(seen.values())

    def canonical_key(self) -> str:
        """Canonical textual form of the query, stable across equivalent spellings.

        Two queries that differ only in irrelevant surface details — SQL
        whitespace, the order of commutative AND/OR children, or the
        orientation of an equi-join condition — produce the same key.  The
        service layer hashes this key (together with planner name and catalog
        version) to address its plan cache.

        Details that *do* change semantics are all included: alias→table
        bindings, join conditions, the normalized WHERE expression, the
        projection list (order-sensitive), DISTINCT, aggregates, GROUP BY,
        ORDER BY and LIMIT.
        """
        parts = [
            "tables=" + ",".join(
                f"{alias}:{table}" for alias, table in sorted(self.tables.items())
            ),
            "joins=" + ",".join(sorted(condition.key() for condition in self.join_conditions)),
            "where=" + (self.predicate.key() if self.predicate is not None else "TRUE"),
            "select=" + ",".join(column.key() for column in self.select),
            "distinct=" + str(self.distinct),
            "aggregates=" + ",".join(aggregate.label() for aggregate in self.aggregates),
            "group_by=" + ",".join(column.key() for column in self.group_by),
            "order_by=" + ",".join(
                f"{item.key}:{'desc' if item.descending else 'asc'}"
                for item in self.order_by
            ),
            "limit=" + str(self.limit),
        ]
        return ";".join(parts)

    def conditions_between(self, left_aliases: frozenset[str], right_aliases: frozenset[str]) -> list[JoinCondition]:
        """Join conditions connecting two disjoint alias sets."""
        out = []
        for condition in self.join_conditions:
            left_in_left = condition.left.alias in left_aliases
            left_in_right = condition.left.alias in right_aliases
            right_in_left = condition.right.alias in left_aliases
            right_in_right = condition.right.alias in right_aliases
            if (left_in_left and right_in_right) or (left_in_right and right_in_left):
                out.append(condition)
        return out

    def __str__(self) -> str:
        tables = ", ".join(f"{table} AS {alias}" for alias, table in self.tables.items())
        joins = " AND ".join(str(condition) for condition in self.join_conditions)
        where = self.predicate.key() if self.predicate is not None else "TRUE"
        return f"SELECT ... FROM {tables} ON {joins or 'TRUE'} WHERE {where}"
