"""TExhaustive: dynamic-programming join ordering under the tagged cost model.

The paper deliberately sticks to simple planners ("it is not the goal of this
work to produce the most advanced, optimal planner") and orders joins
greedily by estimated output cardinality.  This planner is the natural
extension the paper leaves open: a Selinger-style dynamic program that
enumerates every connected join subset (bushy trees included), keeps the
cheapest plan per alias set, and costs candidates with the full tagged cost
model (tag maps included) rather than only output cardinality.

Filter placement follows TPushdown (all base predicates pushed to their base
tables) — the DP explores join orders, which is where greedy ordering can go
wrong.  The planner is exponential in the number of joined tables and is
intended for the query sizes the paper evaluates (2-6 tables); TCombined does
not include it by default, but it is available as the ``texhaustive`` planner
name (``repro compare --planners tpushdown tcombined texhaustive`` is the
planner-quality ablation).
"""

from __future__ import annotations

from itertools import combinations

from repro.core.planner.base import TaggedPlanner
from repro.expr.ast import BooleanExpr
from repro.plan.logical import JoinNode, PlanNode
from repro.plan.query import Query

#: Refuse to enumerate beyond this many tables (2^n subsets).
MAX_TABLES = 10


class TExhaustivePlanner(TaggedPlanner):
    """Exhaustive (DP) join ordering with TPushdown-style filter placement."""

    name = "texhaustive"

    def build_plan(self) -> PlanNode:
        context = self.context
        query = context.query
        if len(query.aliases) > MAX_TABLES:
            raise ValueError(
                f"texhaustive enumerates 2^n join subsets and refuses to run on "
                f"{len(query.aliases)} tables (maximum {MAX_TABLES})"
            )

        leaf_plans, multi_table = self._pushed_leaves()

        if len(query.aliases) == 1:
            joined: PlanNode = leaf_plans[query.aliases[0]]
        else:
            joined = self._dp_join_tree(query, leaf_plans)

        joined = self.stack_filters(joined, context.order_filters(multi_table))
        return self.finish(joined)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _pushed_leaves(self) -> tuple[dict[str, PlanNode], list[BooleanExpr]]:
        """Per-alias scan+filters fragments (TPushdown placement)."""
        context = self.context
        query = context.query
        per_alias: dict[str, list[BooleanExpr]] = {alias: [] for alias in query.aliases}
        multi_table: list[BooleanExpr] = []
        if context.predicate_tree is not None:
            for predicate in context.predicate_tree.base_predicates():
                alias = context.single_table_alias(predicate)
                if alias is not None and alias in per_alias:
                    per_alias[alias].append(predicate)
                else:
                    multi_table.append(predicate)

        leaf_plans = {}
        for alias in query.aliases:
            filters = context.order_filters(per_alias[alias])
            leaf_plans[alias] = self.stack_filters(self.scan_node(alias), filters)
        return leaf_plans, multi_table

    def _plan_cost(self, node: PlanNode) -> float:
        """Cost of a (sub)plan under the tagged cost model, tag maps included."""
        _annotations, cost = self.cost_plan(self.finish(node))
        return cost

    def _dp_join_tree(self, query: Query, leaf_plans: dict[str, PlanNode]) -> PlanNode:
        aliases = list(query.aliases)
        best: dict[frozenset[str], tuple[float, PlanNode]] = {}
        for alias in aliases:
            subset = frozenset({alias})
            best[subset] = (self._plan_cost(leaf_plans[alias]), leaf_plans[alias])

        for size in range(2, len(aliases) + 1):
            for subset_tuple in combinations(aliases, size):
                subset = frozenset(subset_tuple)
                candidate: tuple[float, PlanNode] | None = None
                for left in self._proper_subsets(subset):
                    right = subset - left
                    if left not in best or right not in best:
                        continue
                    conditions = query.conditions_between(left, right)
                    if not conditions:
                        continue
                    joined = JoinNode(best[left][1], best[right][1], conditions)
                    cost = self._plan_cost(joined)
                    if candidate is None or cost < candidate[0]:
                        candidate = (cost, joined)
                if candidate is not None:
                    best[subset] = candidate

        full = frozenset(aliases)
        if full not in best:
            raise ValueError("join graph is disconnected; cannot build a complete join tree")
        return best[full][1]

    @staticmethod
    def _proper_subsets(subset: frozenset[str]):
        """Non-empty proper subsets, each yielded once (its complement is implied)."""
        items = sorted(subset)
        anchor = items[0]
        rest = items[1:]
        for size in range(0, len(rest) + 1):
            for chosen in combinations(rest, size):
                left = frozenset({anchor, *chosen})
                if left != subset:
                    yield left
