"""TCombined: cost every tagged planner's plan and keep the cheapest.

This is the planner Basilisk runs by default (Section 4.2).  Its candidates
are planned through the query's
:class:`~repro.core.planner.base.PlannerContext`, which keeps each
candidate's result: TPullup starts from TPushdown's result there instead of
planning it again, and the evaluation harness's TMin oracle of Figure 3c
(execute every candidate, report the fastest) runs the same
:attr:`TCombinedPlanner.CANDIDATES`.
"""

from __future__ import annotations

import dataclasses

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.core.planner.iterpush import TIterPushPlanner
from repro.core.planner.pullup import TPullupPlanner
from repro.core.planner.pushconj import TPushConjPlanner
from repro.core.planner.pushdown import TPushdownPlanner


class TCombinedPlanner(TaggedPlanner):
    """Pick the cheapest of TPushdown, TPullup, TIterPush and TPushConj."""

    name = "tcombined"

    #: The candidate planners considered, in evaluation order.
    CANDIDATES = (TPushdownPlanner, TPullupPlanner, TIterPushPlanner, TPushConjPlanner)

    def plan(self) -> PlannerResult:
        """The cheapest candidate's result (the first one on a cost tie)."""
        best = min(
            (self.context.planned(candidate) for candidate in self.CANDIDATES),
            key=lambda result: result.estimated_cost,
        )
        return dataclasses.replace(best, planner_name=self.name)
