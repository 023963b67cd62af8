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

from repro.core.planner.base import TaggedPlanner
from repro.core.planner.joinorder import greedy_join_tree
from repro.expr.ast import BooleanExpr
from repro.plan.logical import PlanNode


def split_conjunctive_pushdown(
    predicate_root: BooleanExpr | None,
    aliases: list[str],
    is_and_root: bool,
) -> tuple[dict[str, list[BooleanExpr]], list[BooleanExpr]]:
    """Partition root clauses into per-alias pushable ones and the rest.

    Returns ``(per_alias_pushed, remaining)``.
    """
    per_alias: dict[str, list[BooleanExpr]] = {alias: [] for alias in aliases}
    remaining: list[BooleanExpr] = []
    if predicate_root is None:
        return per_alias, remaining

    clauses = list(predicate_root.children()) if is_and_root else [predicate_root]
    for clause in clauses:
        clause_aliases = clause.tables()
        if len(clause_aliases) == 1:
            alias = next(iter(clause_aliases))
            if alias in per_alias:
                per_alias[alias].append(clause)
                continue
        remaining.append(clause)
    return per_alias, remaining


class TPushConjPlanner(TaggedPlanner):
    """Push single-table root conjuncts; everything else runs after the joins."""

    name = "tpushconj"

    def build_plan(self) -> PlanNode:
        context = self.context
        query = context.query
        tree = context.predicate_tree

        is_and_root = tree is not None and tree.root.is_and
        per_alias, remaining = split_conjunctive_pushdown(
            tree.expression if tree is not None else None, query.aliases, is_and_root
        )

        leaf_plans: dict[str, PlanNode] = {}
        estimated_rows: dict[str, float] = {}
        for alias in query.aliases:
            pushed = per_alias[alias]
            leaf_plans[alias] = self.stack_filters(self.scan_node(alias), pushed)
            estimated_rows[alias] = context.effective_alias_rows(
                alias, pushed, disjunctive=False
            )

        if len(query.aliases) == 1:
            joined: PlanNode = leaf_plans[query.aliases[0]]
        else:
            joined = greedy_join_tree(query, leaf_plans, estimated_rows, context.estimates)

        remaining_sorted = sorted(
            remaining, key=lambda expr: (context.estimates.selectivity(expr), expr.key())
        )
        # Most selective clause first means it must sit lowest in the stack.
        joined = self.stack_filters(joined, remaining_sorted)
        return self.finish(joined)
