"""TIterPush: start with all filters above the joins, push down when cheaper.

The opposite extreme of TPullup (Section 4.2): the base plan performs every
join first and applies all filters afterwards in benefiting order.  Each
filter is then considered, in benefiting order, for being pushed down to its
base table, on top of the filters pushed there before it (so a leaf runs its
pushed filters in benefiting order too); the push is kept whenever the
estimated plan cost decreases.  Each push is costed with the current best
plan's cost as its bound, so the walk that builds its tag maps and adds its
cost terms stops as soon as the push has lost.
This catches plans TPullup misses, where only moving *several* filters at
once (or keeping several up) pays off.
"""

from __future__ import annotations

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.expr.ast import BooleanExpr
from repro.plan.logical import (
    FilterNode,
    PlanNode,
    TableScanNode,
    path_to,
    remove_filter,
    replace_at,
)


def push_filter_to_alias(plan: PlanNode, predicate: BooleanExpr, alias: str) -> PlanNode:
    """Move a filter from wherever it is onto the filter stack of ``alias``.

    The filter is removed from its current position and re-inserted on top
    of the filters directly above the alias's scan node, so filters pushed
    earlier (more beneficial, under TIterPush's benefiting order) run first.
    """
    plan = remove_filter(plan, predicate.key())
    path = path_to(plan, lambda node: isinstance(node, TableScanNode) and node.alias == alias)
    if path is None:
        raise ValueError(f"alias {alias!r} not found in plan")
    top = len(path) - 1
    while top and isinstance(path[top - 1], FilterNode):
        top -= 1
    return replace_at(path[: top + 1], FilterNode(predicate, path[top]))


class TIterPushPlanner(TaggedPlanner):
    """Iteratively push filters down from an all-joins-first base plan."""

    name = "titerpush"

    def plan(self) -> PlannerResult:
        context = self.context
        joined = self.join_leaves({})
        if context.predicate_tree is None:
            return self.cost(self.finish(joined))

        base_predicates = context.order_filters(context.predicate_tree.base_predicates())
        # Filters above the joins run in benefiting order: the most beneficial
        # filter runs first, i.e. sits lowest in the stack.
        best = self.cost(self.finish(self.stack_filters(joined, base_predicates)))

        for predicate in base_predicates:
            alias = context.single_table_alias(predicate)
            if alias is None:
                continue
            result = self.cost(
                push_filter_to_alias(best.plan, predicate, alias), bound=best.estimated_cost
            )
            if result is not None and result.estimated_cost < best.estimated_cost:
                best = result
        return best
