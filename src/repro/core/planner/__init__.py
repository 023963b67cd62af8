"""Planners for tagged execution (Section 4).

All planners share greedy join ordering (:mod:`repro.core.planner.joinorder`)
and the benefit score of Appendix A (:mod:`repro.core.planner.benefit`); they
differ in where filter operators are placed:

* :class:`~repro.core.planner.pushdown.TPushdownPlanner` — every base
  predicate pushed to its base table.
* :class:`~repro.core.planner.pullup.TPullupPlanner` — starts from TPushdown
  and pulls filters up while it reduces estimated cost (Algorithm 2).
* :class:`~repro.core.planner.iterpush.TIterPushPlanner` — starts with all
  filters above the joins and pushes them down while it reduces cost.
* :class:`~repro.core.planner.pushconj.TPushConjPlanner` — mimics what a
  traditional conjunctive planner would do (the overhead comparison point).
* :class:`~repro.core.planner.combined.TCombinedPlanner` — costs the four
  plans above and returns the cheapest (the system default).
"""

from repro.core.planner.base import (
    PlannerContext,
    PlannerResult,
    PlanOptions,
    TaggedPlanner,
)
from repro.core.planner.benefit import benefit_score, benefiting_order
from repro.core.planner.combined import TCombinedPlanner
from repro.core.planner.cost import CostParams, estimate_plan_cost
from repro.core.planner.exhaustive import TExhaustivePlanner
from repro.core.planner.iterpush import TIterPushPlanner
from repro.core.planner.joinorder import greedy_join_tree
from repro.core.planner.pullup import TPullupPlanner
from repro.core.planner.pushconj import TPushConjPlanner
from repro.core.planner.pushdown import TPushdownPlanner

__all__ = [
    "CostParams",
    "PlanOptions",
    "PlannerContext",
    "PlannerResult",
    "TCombinedPlanner",
    "TExhaustivePlanner",
    "TIterPushPlanner",
    "TPullupPlanner",
    "TPushConjPlanner",
    "TPushdownPlanner",
    "TaggedPlanner",
    "benefit_score",
    "benefiting_order",
    "estimate_plan_cost",
    "greedy_join_tree",
]
