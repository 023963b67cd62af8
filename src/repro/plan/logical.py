"""Logical plan trees.

Both execution models share the same logical plan vocabulary: table scans,
filters, joins and a projection root.  The tagged planner later decorates
filter and join nodes with tag maps (see :mod:`repro.core.tagmap`); the
traditional planner runs them directly.

Plan nodes are immutable.  Each node class has one copy rule,
:meth:`PlanNode.with_children`, and every rewrite (removing a filter, pulling
one up, pushing one down) is a :func:`path_to` the node it changes and a
:func:`replace_at` that copies only that path's nodes, sharing every other
subtree with the original plan.  Every node has a stable ``node_id`` assigned
at construction so side tables (tag maps, cost annotations) can reference
nodes without mutating them.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from repro.expr.ast import BooleanExpr, ColumnRef
from repro.plan.query import JoinCondition

_NODE_COUNTER = itertools.count(1)


class PlanNode:
    """Base class of logical plan nodes."""

    def __init__(self, children: list["PlanNode"]) -> None:
        self.children = list(children)
        self.node_id = next(_NODE_COUNTER)

    @property
    def aliases(self) -> frozenset[str]:
        """Table aliases produced by this subtree."""
        result: frozenset[str] = frozenset()
        for child in self.children:
            result |= child.aliases
        return result

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def with_children(self, children: list["PlanNode"]) -> "PlanNode":
        """A copy of this node (fresh ``node_id``) over ``children``."""
        raise NotImplementedError

    def label(self) -> str:
        """Human-readable one-line description."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{self.label()} [#{self.node_id}]"


class TableScanNode(PlanNode):
    """Scan of a base table under an alias."""

    def __init__(self, alias: str, table_name: str) -> None:
        super().__init__([])
        self.alias = alias
        self.table_name = table_name

    @property
    def aliases(self) -> frozenset[str]:
        return frozenset({self.alias})

    def with_children(self, children: list[PlanNode]) -> "TableScanNode":
        return TableScanNode(self.alias, self.table_name)

    def label(self) -> str:
        return f"Scan({self.table_name} AS {self.alias})"


class FilterNode(PlanNode):
    """Apply a predicate expression to the child's output."""

    def __init__(self, predicate: BooleanExpr, child: PlanNode) -> None:
        super().__init__([child])
        self.predicate = predicate

    @property
    def child(self) -> PlanNode:
        """The single input of this filter."""
        return self.children[0]

    def with_children(self, children: list[PlanNode]) -> "FilterNode":
        (child,) = children
        return FilterNode(self.predicate, child)

    def label(self) -> str:
        return f"Filter({self.predicate.key()})"


class JoinNode(PlanNode):
    """Equi-join of two inputs on one or more conditions."""

    def __init__(
        self, left: PlanNode, right: PlanNode, conditions: list[JoinCondition]
    ) -> None:
        if not conditions:
            raise ValueError("a join node requires at least one join condition")
        super().__init__([left, right])
        self.conditions = list(conditions)

    @property
    def left(self) -> PlanNode:
        """Left (build-side candidate) input."""
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        """Right (probe-side candidate) input."""
        return self.children[1]

    def with_children(self, children: list[PlanNode]) -> "JoinNode":
        left, right = children
        return JoinNode(left, right, self.conditions)

    def label(self) -> str:
        rendered = " AND ".join(str(condition) for condition in self.conditions)
        return f"Join({rendered})"


class ProjectNode(PlanNode):
    """Projection root; also the final tag-based filtering point."""

    def __init__(self, child: PlanNode, columns: list[ColumnRef] | None = None) -> None:
        super().__init__([child])
        self.columns = list(columns or [])

    @property
    def child(self) -> PlanNode:
        """The single input of the projection."""
        return self.children[0]

    def with_children(self, children: list[PlanNode]) -> "ProjectNode":
        (child,) = children
        return ProjectNode(child, self.columns)

    def label(self) -> str:
        if not self.columns:
            return "Project(*)"
        return "Project(" + ", ".join(column.key() for column in self.columns) + ")"


# --------------------------------------------------------------------------- #
# Plan rewriting
# --------------------------------------------------------------------------- #
def path_to(root: PlanNode, match: Callable[[PlanNode], bool]) -> list[PlanNode] | None:
    """The nodes from ``root`` down to the first node (pre-order) that
    ``match`` accepts, or None when no node does."""
    if match(root):
        return [root]
    for child in root.children:
        path = path_to(child, match)
        if path is not None:
            return [root, *path]
    return None


def filter_path(root: PlanNode, predicate_key: str) -> list[PlanNode] | None:
    """:func:`path_to` the first filter on ``predicate_key``."""
    return path_to(
        root, lambda node: isinstance(node, FilterNode) and node.predicate.key() == predicate_key
    )


def replace_at(path: list[PlanNode], replacement: PlanNode) -> PlanNode:
    """``path[0]`` rebuilt with ``path[-1]`` replaced by ``replacement``.

    Only the ancestors on the path are copied (fresh node ids); every subtree
    off the path is shared with the original plan.
    """
    for parent, old in zip(path[-2::-1], path[:0:-1]):
        replacement = parent.with_children(
            [replacement if child is old else child for child in parent.children]
        )
    return replacement


def collect_filters(node: PlanNode) -> list[FilterNode]:
    """All filter nodes in a plan, pre-order."""
    return [candidate for candidate in node.walk() if isinstance(candidate, FilterNode)]


def collect_joins(node: PlanNode) -> list[JoinNode]:
    """All join nodes in a plan, pre-order."""
    return [candidate for candidate in node.walk() if isinstance(candidate, JoinNode)]


def remove_filter(node: PlanNode, target_predicate_key: str) -> PlanNode:
    """Return a copy of the plan with the first filter on ``target_predicate_key`` removed."""
    path = filter_path(node, target_predicate_key)
    if path is None:
        raise ValueError(f"no filter with predicate {target_predicate_key!r} found in plan")
    return replace_at(path, path[-1].children[0])


def plan_to_string(node: PlanNode, indent: int = 0) -> str:
    """Pretty-print a plan tree, one node per line."""
    lines = ["  " * indent + node.label()]
    for child in node.children:
        lines.append(plan_to_string(child, indent + 1))
    return "\n".join(lines)
