"""Traditional-execution planners: BDisj and BPushConj (Section 5).

* **BDisj** handles OR-rooted predicate expressions (DNFs): every root clause
  becomes its own conventional query plan with conjunctive pushdown, the
  subqueries run independently, and a final union operator removes the
  duplicate tuples produced by overlapping clauses.  This mirrors both the
  academic treatment of disjunctions and the manual rewrite experts recommend
  for engines without native support.
* **BPushConj** handles AND-rooted predicate expressions (CNFs): root clauses
  whose predicates all reference a single table are pushed to that table; the
  remaining clauses run after all joins in increasing selectivity order.
  This is what PostgreSQL-class systems do.

Both order joins greedily by estimated output cardinality, exactly like the
tagged planners, and build their trees with the tagged planners' helpers.
BPushConj's tree *is* TPushConj's (Figure 3d compares the two on identical
plans, so their gap is the price of the tag machinery).
"""

from __future__ import annotations

from repro.core.planner.base import PlannerResult, TaggedPlanner, conjuncts
from repro.core.planner.pushconj import TPushConjPlanner
from repro.expr.ast import BooleanExpr
from repro.plan.logical import PlanNode


class BDisjPlanner(TaggedPlanner):
    """Per-root-clause execution with a final union (for OR-rooted predicates)."""

    name = "bdisj"
    kind = "traditional"

    def plan(self) -> PlannerResult:
        """Build one conventional subplan per root clause."""
        tree = self.context.predicate_tree
        if tree is None:
            clauses: list[BooleanExpr | None] = [None]
        elif tree.root.is_or:
            clauses = [child.expr for child in tree.root.children]
        else:
            clauses = [tree.expression]
        return self.untagged_result(
            [self._conjunctive_subplan(clause) for clause in clauses]
        )

    def _conjunctive_subplan(self, clause: BooleanExpr | None) -> PlanNode:
        """A conventional plan for the query restricted to one (conjunctive) clause."""
        context = self.context
        per_alias, remaining = context.split_by_alias(conjuncts(clause))
        joined = self.join_leaves(
            {alias: context.selectivity_order(pushed) for alias, pushed in per_alias.items()}
        )
        return self.finish(self.stack_filters(joined, context.selectivity_order(remaining)))


class BPushConjPlanner(TaggedPlanner):
    """Conjunctive pushdown only (for AND-rooted predicates)."""

    name = "bpushconj"
    kind = "traditional"

    def plan(self) -> PlannerResult:
        """TPushConj's tree, executed without tags."""
        return self.untagged_result([TPushConjPlanner(self.context).build_plan()])
