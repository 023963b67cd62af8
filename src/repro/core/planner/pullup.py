"""TPullup: pull filters up out of the TPushdown plan when cheaper (Algorithm 2).

TPushdown's result is the base plan.  It is read from the query's
:class:`~repro.core.planner.base.PlannerContext`, so under TCombined, which
has TPushdown as a candidate too, it is built and costed once.  Every filter
is then considered, in reverse benefiting order, for being pulled up one
node at a time; whenever the resulting plan is estimated to be cheaper it
becomes the new base plan.  The planner is useful when some predicate
subexpressions are so selective that delaying other, expensive predicates
(regex matching, say) until after the joins is a win.
"""

from __future__ import annotations

import dataclasses

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.core.planner.pushdown import TPushdownPlanner
from repro.plan.logical import (
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
)


def pullup_once(plan: PlanNode, predicate_key: str) -> tuple[PlanNode, bool] | None:
    """Move the (first) filter with ``predicate_key`` one node upwards.

    Pulling up past another filter swaps the two; pulling up past a join
    moves the filter above the join.  Returns the rewritten plan and whether
    the step crossed a join, or None when the filter cannot be pulled up any
    further (it sits directly below the projection root, or it does not occur
    in the plan).  The predicate is never dropped — a plan rewrite either
    keeps every filter or fails.
    """
    moved = False
    crossed_join = False

    def is_target(node: PlanNode) -> bool:
        return isinstance(node, FilterNode) and node.predicate.key() == predicate_key

    def rebuild(node: PlanNode) -> PlanNode:
        nonlocal moved, crossed_join
        if isinstance(node, TableScanNode):
            return TableScanNode(node.alias, node.table_name)
        if isinstance(node, FilterNode):
            child = node.child
            if not moved and is_target(child):
                # Swap this filter with the target directly below it.
                moved = True
                assert isinstance(child, FilterNode)
                return FilterNode(
                    child.predicate, FilterNode(node.predicate, rebuild(child.child))
                )
            return FilterNode(node.predicate, rebuild(child))
        if isinstance(node, JoinNode):
            lifted = None
            new_children = []
            for child in (node.left, node.right):
                if not moved and is_target(child):
                    moved = crossed_join = True
                    assert isinstance(child, FilterNode)
                    lifted = child.predicate
                    new_children.append(rebuild(child.child))
                else:
                    new_children.append(rebuild(child))
            rebuilt: PlanNode = JoinNode(new_children[0], new_children[1], node.conditions)
            if lifted is not None:
                rebuilt = FilterNode(lifted, rebuilt)
            return rebuilt
        if isinstance(node, ProjectNode):
            # A filter directly below the projection root cannot go any higher.
            return ProjectNode(rebuild(node.child), node.columns)
        raise TypeError(f"unknown plan node type: {type(node).__name__}")

    result = rebuild(plan)
    return (result, crossed_join) if moved else None


def pullup_to_next_join(plan: PlanNode, predicate_key: str) -> PlanNode | None:
    """Pull a filter up until it has just crossed the next join above it.

    Pulling a filter past the other filters stacked on top of it never changes
    which slices reach the joins, so intermediate positions are not worth
    costing; the paper's Section 5.2 discussion suggests exactly this
    optimization ("pulls filter nodes up to the next join juncture") to tame
    TPullup's planning time.  Returns None when the filter is already above
    every join it can cross (or absent).
    """
    step = pullup_once(plan, predicate_key)
    while step is not None:
        candidate, crossed_join = step
        if crossed_join:
            return candidate
        step = pullup_once(candidate, predicate_key)
    return None


class TPullupPlanner(TaggedPlanner):
    """Algorithm 2: iteratively pull filters up while the plan gets cheaper.

    Filters are pulled one *join juncture* at a time (rather than one plan
    node at a time): positions between two filters in the same stack are
    equivalent for the tagged cost model, and skipping them keeps planning
    time linear in the number of joins instead of the plan depth — the
    optimization the paper recommends when discussing Figure 4c.
    """

    name = "tpullup"

    #: Safety bound on pull-up attempts per filter (one per join level).
    MAX_PULLUPS_PER_FILTER = 16

    def plan(self) -> PlannerResult:
        context = self.context
        best = dataclasses.replace(context.planned(TPushdownPlanner), planner_name=self.name)
        if context.predicate_tree is None:
            return best

        filters = [node.predicate for node in best.plan.walk() if isinstance(node, FilterNode)]
        deduplicated: dict[str, object] = {}
        for predicate in filters:
            deduplicated.setdefault(predicate.key(), predicate)
        ordered = context.order_filters(list(deduplicated.values()))

        for predicate in reversed(ordered):
            candidate = best.plan
            for _step in range(self.MAX_PULLUPS_PER_FILTER):
                candidate = pullup_to_next_join(candidate, predicate.key())
                if candidate is None:
                    break
                result = self.cost(candidate)
                if result.estimated_cost < best.estimated_cost:
                    best = result
        return best
