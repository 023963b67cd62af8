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

from repro.core.planner.base import PlannerResult, TaggedPlanner
from repro.plan.logical import JoinNode, PlanNode
from repro.plan.query import Query

#: Refuse to enumerate beyond this many tables (2^n subsets).
MAX_TABLES = 10


class TExhaustivePlanner(TaggedPlanner):
    """Exhaustive (DP) join ordering with TPushdown-style filter placement."""

    name = "texhaustive"

    def plan(self) -> PlannerResult:
        context = self.context
        query = context.query
        if len(query.aliases) > MAX_TABLES:
            raise ValueError(
                f"texhaustive enumerates 2^n join subsets and refuses to run on "
                f"{len(query.aliases)} tables (maximum {MAX_TABLES})"
            )

        per_alias, multi_table = context.pushdown_placement()
        leaf_plans = {
            alias: self.stack_filters(self.scan_node(alias), filters)
            for alias, filters in per_alias.items()
        }
        best = self._dp_join_tree(query, leaf_plans)
        if not multi_table:
            return best
        return self.cost(self.finish(self.stack_filters(best.plan.child, multi_table)))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _dp_join_tree(self, query: Query, leaf_plans: dict[str, PlanNode]) -> PlannerResult:
        """The cheapest complete join tree, costed under its projection root
        (tag maps included); ``.plan.child`` is the join tree itself."""
        aliases = list(query.aliases)
        best: dict[frozenset[str], PlannerResult] = {}
        for alias in aliases:
            best[frozenset({alias})] = self.cost(self.finish(leaf_plans[alias]))

        for size in range(2, len(aliases) + 1):
            for subset_tuple in combinations(aliases, size):
                subset = frozenset(subset_tuple)
                candidate: PlannerResult | None = None
                for left in self._proper_subsets(subset):
                    right = subset - left
                    if left not in best or right not in best:
                        continue
                    conditions = query.conditions_between(left, right)
                    if not conditions:
                        continue
                    joined = JoinNode(best[left].plan.child, best[right].plan.child, conditions)
                    result = self.cost(self.finish(joined))
                    if candidate is None or result.estimated_cost < candidate.estimated_cost:
                        candidate = result
                if candidate is not None:
                    best[subset] = candidate

        full = frozenset(aliases)
        if full not in best:
            raise ValueError("join graph is disconnected; cannot build a complete join tree")
        return best[full]

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
