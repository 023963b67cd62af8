"""TCombined: cost every tagged planner's plan and keep the cheapest.

This is the planner Basilisk runs by default (Section 4.2).  It also exposes
the per-candidate costs, which the evaluation harness uses both for
diagnostics and for the TMin oracle of Figure 3c (execute every candidate,
report the fastest).
"""

from __future__ import annotations

import dataclasses

from repro.core.planner.base import PlannerContext, PlannerResult, TaggedPlanner
from repro.core.planner.iterpush import TIterPushPlanner
from repro.core.planner.pullup import TPullupPlanner
from repro.core.planner.pushconj import TPushConjPlanner
from repro.core.planner.pushdown import TPushdownPlanner
from repro.plan.logical import PlanNode


class TCombinedPlanner(TaggedPlanner):
    """Pick the cheapest of TPushdown, TPullup, TIterPush and TPushConj."""

    name = "tcombined"

    #: The candidate planners considered, in evaluation order.
    CANDIDATES = (TPushdownPlanner, TPullupPlanner, TIterPushPlanner, TPushConjPlanner)

    def __init__(self, context: PlannerContext) -> None:
        super().__init__(context)
        self.candidate_results: list[PlannerResult] = []

    def candidates(self) -> list[PlannerResult]:
        """Plan with every candidate planner (memoized)."""
        if not self.candidate_results:
            self.candidate_results = [
                planner_class(self.context).plan() for planner_class in self.CANDIDATES
            ]
        return self.candidate_results

    def build_plan(self) -> PlanNode:
        best = min(self.candidates(), key=lambda result: result.estimated_cost)
        return best.plan

    def plan(self) -> PlannerResult:
        best = min(self.candidates(), key=lambda result: result.estimated_cost)
        return dataclasses.replace(best, planner_name=self.name)
