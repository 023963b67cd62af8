"""TPushdown: push every base predicate to its base table (Section 4.2)."""

from __future__ import annotations

from repro.core.planner.base import TaggedPlanner
from repro.plan.logical import PlanNode


class TPushdownPlanner(TaggedPlanner):
    """Create a filter per base predicate and push it down to its table.

    Filters on the same table run in benefiting order; joins are ordered
    greedily by estimated output cardinality; base predicates that span more
    than one table (rare) run after the joins.
    """

    name = "tpushdown"

    def build_plan(self) -> PlanNode:
        per_alias, multi_table = self.context.pushdown_placement()
        joined = self.join_leaves(per_alias, disjunctive=True)
        return self.finish(self.stack_filters(joined, multi_table))
