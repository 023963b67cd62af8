"""TIterPush: start with all filters above the joins, push down when cheaper.

The opposite extreme of TPullup (Section 4.2): the base plan performs every
join first and applies all filters afterwards in benefiting order.  Each
filter is then considered, in benefiting order, for being pushed down to its
base table; the push is kept whenever the estimated plan cost decreases.
This catches plans TPullup misses, where only moving *several* filters at
once (or keeping several up) pays off.
"""

from __future__ import annotations

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.core.planner.joinorder import greedy_join_tree
from repro.expr.ast import BooleanExpr
from repro.plan.logical import (
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
    remove_filter,
)


def push_filter_to_alias(plan: PlanNode, predicate: BooleanExpr, alias: str) -> PlanNode:
    """Move a filter from wherever it is onto the scan of ``alias``.

    The filter is removed from its current position and re-inserted directly
    above the alias's scan node (below any filters already pushed there, so
    previously pushed filters keep their relative order above it).
    """
    without = remove_filter(plan, predicate.key())
    inserted = False

    def rebuild(node: PlanNode) -> PlanNode:
        nonlocal inserted
        if isinstance(node, TableScanNode):
            rebuilt: PlanNode = TableScanNode(node.alias, node.table_name)
            if not inserted and node.alias == alias:
                inserted = True
                rebuilt = FilterNode(predicate, rebuilt)
            return rebuilt
        if isinstance(node, FilterNode):
            return FilterNode(node.predicate, rebuild(node.child))
        if isinstance(node, JoinNode):
            return JoinNode(rebuild(node.left), rebuild(node.right), node.conditions)
        if isinstance(node, ProjectNode):
            return ProjectNode(rebuild(node.child), node.columns)
        raise TypeError(f"unknown plan node type: {type(node).__name__}")

    result = rebuild(without)
    if not inserted:
        raise ValueError(f"alias {alias!r} not found in plan")
    return result


class TIterPushPlanner(TaggedPlanner):
    """Iteratively push filters down from an all-joins-first base plan."""

    name = "titerpush"

    def plan(self) -> PlannerResult:
        context = self.context
        query = context.query

        leaf_plans: dict[str, PlanNode] = {
            alias: self.scan_node(alias) for alias in query.aliases
        }
        estimated_rows = {
            alias: context.estimates.base_rows(alias) for alias in query.aliases
        }
        if len(query.aliases) == 1:
            joined: PlanNode = leaf_plans[query.aliases[0]]
        else:
            joined = greedy_join_tree(query, leaf_plans, estimated_rows, context.estimates)

        if context.predicate_tree is None:
            return self.cost(self.finish(joined))

        base_predicates = context.order_filters(context.predicate_tree.base_predicates())
        # Filters above the joins run in benefiting order: the most beneficial
        # filter runs first, i.e. sits lowest in the stack.
        joined = self.stack_filters(joined, base_predicates)
        best = self.cost(self.finish(joined))

        for predicate in base_predicates:
            alias = context.single_table_alias(predicate)
            if alias is None:
                continue
            try:
                candidate = push_filter_to_alias(best.plan, predicate, alias)
            except ValueError:
                continue
            result = self.cost(candidate)
            if result.estimated_cost < best.estimated_cost:
                best = result
        return best
