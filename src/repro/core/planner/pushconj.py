"""TPushConj: the tagged mirror of a traditional conjunctive planner.

If the predicate tree's root is an AND node, root-clause children whose
predicates all reference a single table are pushed down to that table (as a
single complex filter); the remaining children are applied after all joins in
increasing order of selectivity.  Any other root shape gets no pushdown at
all.  TPushConj mainly serves as the overhead comparison point against
BPushConj (Figure 3d): BPushConj executes the tree
:meth:`TPushConjPlanner.build_plan` returns, so the plans are identical and
the runtime difference is the cost of the tag machinery itself.
"""

from __future__ import annotations

from repro.core.planner.base import TaggedPlanner, conjuncts
from repro.plan.logical import PlanNode


class TPushConjPlanner(TaggedPlanner):
    """Push single-table root conjuncts; everything else runs after the joins."""

    name = "tpushconj"

    def build_plan(self) -> PlanNode:
        context = self.context
        tree = context.predicate_tree
        per_alias, remaining = context.split_by_alias(
            conjuncts(tree.expression if tree is not None else None)
        )
        joined = self.join_leaves(per_alias)
        # Most selective clause first means it must sit lowest in the stack.
        return self.finish(self.stack_filters(joined, context.selectivity_order(remaining)))
