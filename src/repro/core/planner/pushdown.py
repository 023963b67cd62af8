"""TPushdown: push every base predicate to its base table (Section 4.2)."""

from __future__ import annotations

from repro.core.planner.base import TaggedPlanner
from repro.core.planner.joinorder import greedy_join_tree
from repro.plan.logical import PlanNode


class TPushdownPlanner(TaggedPlanner):
    """Create a filter per base predicate and push it down to its table.

    Filters on the same table run in benefiting order; joins are ordered
    greedily by estimated output cardinality; base predicates that span more
    than one table (rare) run after the joins.
    """

    name = "tpushdown"

    def build_plan(self) -> PlanNode:
        context = self.context
        query = context.query
        per_alias, multi_table = context.pushdown_placement()

        leaf_plans: dict[str, PlanNode] = {}
        estimated_rows: dict[str, float] = {}
        for alias, filters in per_alias.items():
            leaf_plans[alias] = self.stack_filters(self.scan_node(alias), filters)
            estimated_rows[alias] = context.effective_alias_rows(
                alias, filters, disjunctive=True
            )

        if len(query.aliases) == 1:
            joined: PlanNode = leaf_plans[query.aliases[0]]
        else:
            joined = greedy_join_tree(query, leaf_plans, estimated_rows, context.estimates)
        return self.finish(self.stack_filters(joined, multi_table))
