"""Bypass planner.

The bypass technique, as described by Kemper et al. and its follow-ups,
always materializes the predicate evaluation into the plan: every base
predicate becomes a bypass filter pushed to its base table, and plans cannot
trade pushdown against pull-up the way tagged planners can (the paper's
Section 6 highlights exactly this limitation — bypass "only produces plans in
which predicates are all pushed down").  The plan *shape* is therefore the
same as TPushdown's; what changes is the execution semantics, which is the
job of the bypass operators (:mod:`repro.bypass.operators`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner.base import PlannerContext
from repro.core.planner.pushdown import TPushdownPlanner
from repro.plan.logical import PlanNode, plan_to_string


@dataclass
class BypassPlan:
    """A planned bypass query: one pushdown-shaped logical plan."""

    planner_name: str
    plan: PlanNode

    def describe(self) -> str:
        """One-line summary used by reports."""
        return f"{self.planner_name}: bypass pushdown plan"

    def to_string(self) -> str:
        """Pretty-printed plan tree."""
        return plan_to_string(self.plan)


class BypassPlanner:
    """Produce the pushdown-shaped plan the bypass technique requires."""

    name = "bypass"

    def __init__(self, context: PlannerContext) -> None:
        self.context = context

    def plan(self) -> BypassPlan:
        """Build the bypass plan (TPushdown shape, bypass execution)."""
        logical_plan = TPushdownPlanner(self.context).build_plan()
        return BypassPlan(self.name, logical_plan)
