"""TPullup: pull filters up out of the TPushdown plan when cheaper (Algorithm 2).

TPushdown's result is the base plan.  It is read from the query's
:class:`~repro.core.planner.base.PlannerContext`, so under TCombined, which
has TPushdown as a candidate too, it is built and costed once.  Every filter
is then considered, in reverse benefiting order, for being pulled up one
join at a time (:func:`pullup_to_next_join`); whenever the resulting plan is
estimated to be cheaper it becomes the new base plan.  Each candidate is
costed with the base plan's cost as its bound: the walk that builds its tag
maps and adds its cost terms stops as soon as the running total exceeds the
bound, since the candidate can no longer win (the search keeps pulling the
filter up from it either way).  The planner is useful when some predicate
subexpressions are so selective that delaying other, expensive predicates
(regex matching, say) until after the joins is a win.
"""

from __future__ import annotations

import dataclasses

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.core.planner.pushdown import TPushdownPlanner
from repro.plan.logical import FilterNode, JoinNode, PlanNode, filter_path, replace_at


def pullup_to_next_join(plan: PlanNode, predicate_key: str) -> PlanNode | None:
    """Move the (first) filter on ``predicate_key`` to just above its nearest
    join ancestor.

    Pulling a filter past the other filters stacked on top of it never changes
    which slices reach the joins, so intermediate positions are not worth
    costing; the paper's Section 5.2 discussion suggests exactly this
    optimization ("pulls filter nodes up to the next join juncture") to tame
    TPullup's planning time.  The filter lands directly on the join, below
    any filters already stacked above it.  Returns None when no join is above
    the filter (or the filter is absent).  The predicate is never dropped.
    """
    path = filter_path(plan, predicate_key)
    joins = [depth for depth, node in enumerate(path or ()) if isinstance(node, JoinNode)]
    if not joins:
        return None
    target = path[-1]
    lowered = replace_at(path[joins[-1] :], target.children[0])
    return replace_at(path[: joins[-1] + 1], target.with_children([lowered]))


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
                result = self.cost(candidate, bound=best.estimated_cost)
                if result is not None and result.estimated_cost < best.estimated_cost:
                    best = result
        return best
