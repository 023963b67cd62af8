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

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.core.planner.pushdown import TPushdownPlanner


class BypassPlanner(TaggedPlanner):
    """Produce the pushdown-shaped plan the bypass technique requires."""

    name = "bypass"
    kind = "bypass"

    def plan(self) -> PlannerResult:
        """Build the bypass plan (TPushdown shape, bypass execution)."""
        return self.untagged_result([TPushdownPlanner(self.context).build_plan()])
