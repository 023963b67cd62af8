"""Unit tests for the tagged planners, benefit score, join ordering and cost model."""

from collections import Counter

import pytest

from repro.baseline.planners import BDisjPlanner
from repro.core.planner.base import PlannerContext
from repro.core.planner.benefit import benefit_score, benefiting_order
from repro.core.planner.combined import TCombinedPlanner
from repro.core.planner.cost import CostParams, PlanCost
from repro.core.planner.iterpush import TIterPushPlanner, push_filter_to_alias
from repro.core.planner.joinorder import greedy_join_tree
from repro.core.planner.pullup import TPullupPlanner, pullup_to_next_join
from repro.core.planner.pushconj import TPushConjPlanner
from repro.core.planner.pushdown import TPushdownPlanner
from repro.core.predtree import PredicateTree
from repro.expr.builders import and_, col, ilike, lit, or_
from repro.plan.logical import (
    FilterNode,
    JoinNode,
    ProjectNode,
    TableScanNode,
    collect_filters,
    collect_joins,
    filter_path,
    plan_to_string,
    remove_filter,
)
from repro.plan.query import JoinCondition, Query
from repro.workloads.job import job_query_groups


class _StubEstimates:
    """Minimal estimates object for driving benefit scoring in isolation."""

    def __init__(self, selectivity, cost_factor=lambda expr: 1.0):
        self.selectivity = selectivity
        self.cost_factor = cost_factor


@pytest.fixture
def context(paper_catalog, paper_query):
    return PlannerContext.for_query(paper_query, paper_catalog)


class TestBenefitScore:
    @pytest.fixture
    def tree(self):
        self.p1 = col("t", "a") > lit(1)
        self.p2 = col("t", "b") > lit(2)
        self.p3 = col("t", "c") > lit(3)
        self.p4 = col("t", "d") > lit(4)
        return PredicateTree(or_(and_(self.p1, self.p2), and_(self.p3, self.p4)))

    def test_and_sibling_gets_and_benefit(self, tree):
        score = benefit_score(tree, self.p1, [self.p2], lambda expr: 0.25)
        assert score == pytest.approx(0.75)

    def test_other_or_branch_contributes_nothing(self, tree):
        # p3 is not a descendant of p1's (AND) parent, so applying p1 first
        # does not reduce p3's input at all.
        score = benefit_score(tree, self.p1, [self.p3], lambda expr: 0.25)
        assert score == pytest.approx(0.0)

    def test_or_parent_gets_or_benefit(self):
        p1 = col("t", "a") > lit(1)
        p3 = col("t", "c") > lit(3)
        p4 = col("t", "d") > lit(4)
        tree = PredicateTree(or_(p1, and_(p3, p4)))
        # p1's parent is the OR root and p3 is a descendant of it: applying p1
        # first removes the tuples that already satisfy the disjunction.
        score = benefit_score(tree, p1, [p3], lambda expr: 0.25)
        assert score == pytest.approx(0.25)

    def test_multiple_unapplied_sum(self, tree):
        score = benefit_score(tree, self.p1, [self.p2, self.p3], lambda expr: 0.25)
        assert score == pytest.approx(0.75)

    def test_self_excluded(self, tree):
        assert benefit_score(tree, self.p1, [self.p1], lambda expr: 0.25) == 0.0

    def test_root_predicate_scores_zero(self):
        only = col("t", "a") > lit(1)
        tree = PredicateTree(only)
        assert benefit_score(tree, only, [only], lambda expr: 0.5) == 0.0

    def test_benefiting_order_prefers_high_benefit_low_cost(self, tree):
        selectivities = {self.p1.key(): 0.1, self.p2.key(): 0.9, self.p3.key(): 0.5, self.p4.key(): 0.5}
        estimates = _StubEstimates(lambda expr: selectivities[expr.key()])
        order = benefiting_order(tree, [self.p2, self.p1, self.p3, self.p4], estimates)
        assert order[0].key() == self.p1.key()

    def test_benefiting_order_without_tree_sorts_by_selectivity(self):
        a = col("t", "a") > lit(1)
        b = col("t", "b") > lit(2)
        estimates = _StubEstimates(lambda e: 0.9 if e.key() == a.key() else 0.1)
        order = benefiting_order(None, [a, b], estimates)
        assert order[0].key() == b.key()


class TestJoinOrdering:
    def test_smallest_output_first(self, paper_catalog):
        query = Query(
            tables={"a": "title", "b": "movie_info_idx", "c": "movie_info_idx"},
            join_conditions=[
                JoinCondition(col("a", "id"), col("b", "movie_id")),
                JoinCondition(col("a", "id"), col("c", "movie_id")),
            ],
        )
        context = PlannerContext.for_query(query, paper_catalog)
        leaf_plans = {alias: TableScanNode(alias, query.tables[alias]) for alias in query.aliases}
        rows = {"a": 1000.0, "b": 10.0, "c": 500.0}
        tree = greedy_join_tree(query, leaf_plans, rows, context.estimates)
        joins = collect_joins(tree)
        # The first (deepest) join must involve the small 'b' input.
        deepest = joins[-1]
        assert "b" in deepest.aliases

    def test_disconnected_graph_raises(self, paper_catalog):
        query = Query(tables={"a": "title", "b": "movie_info_idx"})
        context = PlannerContext.for_query(query, paper_catalog)
        leaf_plans = {alias: TableScanNode(alias, query.tables[alias]) for alias in query.aliases}
        with pytest.raises(ValueError, match="disconnected"):
            greedy_join_tree(query, leaf_plans, {"a": 1.0, "b": 1.0}, context.estimates)

    def test_single_input(self, paper_catalog, paper_query):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        scan = TableScanNode("t", "title")
        assert greedy_join_tree(paper_query, {"t": scan}, {"t": 7.0}, context.estimates) is scan


def _plan_cost(context, plan, params=None) -> PlanCost:
    """``plan``'s cost, summed by the tag-map walk."""
    cost = PlanCost(context.estimates, params)
    assert context.tag_maps.build(plan, cost) is not None
    return cost


class TestCostModel:
    def test_pushdown_cheaper_than_no_pushdown_for_disjunction(self, context):
        pushdown = TPushdownPlanner(context).build_plan()
        pushconj = TPushConjPlanner(context).build_plan()
        cost_a = _plan_cost(context, pushdown).total
        cost_b = _plan_cost(context, pushconj).total
        assert cost_a > 0 and cost_b > 0

    def test_cost_breakdown_components(self, context):
        plan = TPushdownPlanner(context).build_plan()
        breakdown = _plan_cost(context, plan)
        assert breakdown.total == pytest.approx(
            breakdown.filter_cost + breakdown.join_cost + breakdown.scan_cost
        )
        assert breakdown.join_cost > 0
        assert breakdown.scan_cost > 0  # per-leaf access-path I/O term

    def test_alpha_scales_filter_cost(self, context):
        plan = TPushdownPlanner(context).build_plan()
        cheap = _plan_cost(context, plan, CostParams(alpha=1.0))
        expensive = _plan_cost(context, plan, CostParams(alpha=10.0))
        assert expensive.filter_cost == pytest.approx(10 * cheap.filter_cost)
        assert expensive.join_cost == pytest.approx(cheap.join_cost)

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_cost_constants_are_non_negative(self, value):
        """A negative term could lower the running total, so a search could
        no longer stop costing a candidate once it exceeds the best."""
        with pytest.raises(ValueError, match="f_hash_build must be non-negative"):
            CostParams(f_hash_build=value)


class TestTPushdown:
    def test_all_base_predicates_pushed(self, context):
        plan = TPushdownPlanner(context).build_plan()
        filters = collect_filters(plan)
        assert len(filters) == 4
        for filter_node in filters:
            # Every filter sits below the join, above a scan or another filter.
            assert isinstance(filter_node.child, (TableScanNode, FilterNode))

    def test_single_join(self, context):
        plan = TPushdownPlanner(context).build_plan()
        assert len(collect_joins(plan)) == 1

    def test_project_root(self, context):
        plan = TPushdownPlanner(context).build_plan()
        assert isinstance(plan, ProjectNode)

    def test_single_table_query(self, paper_catalog):
        query = Query(tables={"t": "title"}, predicate=col("t", "production_year") > lit(2000))
        context = PlannerContext.for_query(query, paper_catalog)
        plan = TPushdownPlanner(context).build_plan()
        assert len(collect_filters(plan)) == 1
        assert len(collect_joins(plan)) == 0

    def test_query_without_predicate(self, paper_catalog, paper_query):
        query = Query(
            tables=dict(paper_query.tables),
            join_conditions=list(paper_query.join_conditions),
        )
        context = PlannerContext.for_query(query, paper_catalog)
        plan = TPushdownPlanner(context).build_plan()
        assert collect_filters(plan) == []
        assert len(collect_joins(plan)) == 1


class TestPlanRewrites:
    def test_pullup_moves_filter_above_join(self, context):
        plan = TPushdownPlanner(context).build_plan()
        target = collect_filters(plan)[0].predicate
        lifted = pullup_to_next_join(plan, target.key())
        filters_above_join = [
            node for node in collect_filters(lifted) if isinstance(node.child, JoinNode)
        ]
        assert [node.predicate.key() for node in filters_above_join] == [target.key()]

    def test_pullup_preserves_filter_count(self, context):
        plan = TPushdownPlanner(context).build_plan()
        target = collect_filters(plan)[0].predicate
        rewritten = pullup_to_next_join(plan, target.key())
        assert len(collect_filters(rewritten)) == len(collect_filters(plan))

    def test_pullup_of_missing_filter_returns_none(self, context):
        plan = TPushdownPlanner(context).build_plan()
        assert pullup_to_next_join(plan, "(no such predicate)") is None

    def test_pullup_stops_above_the_last_join(self, context):
        plan = TPushdownPlanner(context).build_plan()
        target = collect_filters(plan)[0].predicate
        current, lifts = plan, 0
        while (step := pullup_to_next_join(current, target.key())) is not None:
            current, lifts = step, lifts + 1
        assert lifts == 1  # the paper query has one join
        assert isinstance(current.child, FilterNode)
        assert current.child.predicate.key() == target.key()
        assert len(collect_filters(current)) == 4

    def test_push_filter_to_alias(self, context):
        base = TIterPushPlanner(context).plan().plan
        predicate = collect_filters(base)[0].predicate
        alias = next(iter(predicate.tables()))
        pushed = push_filter_to_alias(base, predicate, alias)
        assert _filter_keys(pushed)[predicate.key()] == 1
        # The pushed filter tops the alias's filter stack.
        *_, parent, node = filter_path(pushed, predicate.key())
        assert not isinstance(parent, FilterNode)
        while isinstance(node, FilterNode):
            node = node.child
        assert isinstance(node, TableScanNode) and node.alias == alias

    def test_pushes_onto_one_alias_keep_their_order(self):
        """A leaf runs its pushed filters in push order: the first pushed
        sits nearest the scan."""
        first, second = col("t", "year") > lit(2000), col("t", "year") > lit(1980)
        joined = JoinNode(
            TableScanNode("t", "title"),
            TableScanNode("mi", "movie_info_idx"),
            [JoinCondition(col("t", "id"), col("mi", "movie_id"))],
        )
        plan = ProjectNode(FilterNode(second, FilterNode(first, joined)))
        for predicate in (first, second):
            plan = push_filter_to_alias(plan, predicate, "t")
        assert _filter_chains(plan, TableScanNode) == [[first, second]]


def _filter_keys(plan) -> Counter:
    return Counter(node.predicate.key() for node in collect_filters(plan))


class TestRewritesOverJob:
    """The rewrites on every JOB query's plans: no filter is lost or
    duplicated, and each move lands where its planner expects it."""

    def test_repeated_pullup_lifts_each_filter_join_by_join(self, imdb_catalog):
        lifts = 0
        for context in _job_contexts(imdb_catalog):
            plan = TPushdownPlanner(context).build_plan()
            assert pullup_to_next_join(plan, "(no such predicate)") is None
            for key in _filter_keys(plan):
                current = plan
                while True:
                    path = filter_path(current, key)
                    joins = [node for node in path if isinstance(node, JoinNode)]
                    lifted = pullup_to_next_join(current, key)
                    assert (lifted is None) == (not joins)
                    if lifted is None:
                        break
                    assert _filter_keys(lifted) == _filter_keys(plan)
                    moved = filter_path(lifted, key)[-1]
                    assert isinstance(moved.child, JoinNode)
                    assert plan_to_string(moved.child) == plan_to_string(
                        remove_filter(joins[-1], key)
                    )
                    current, lifts = lifted, lifts + 1
        assert lifts

    def test_every_titerpush_push_finds_its_filter_and_alias(self, imdb_catalog):
        """Binding rejects a predicate on an alias the query does not scan,
        and a push moves a filter without dropping it, so each push of the
        TIterPush search finds both its filter and its alias's scan."""
        pushes = 0
        for context in _job_contexts(imdb_catalog):
            if context.predicate_tree is None:
                continue
            order = context.order_filters(context.predicate_tree.base_predicates())
            planner = TIterPushPlanner(context)
            plan = planner.stack_filters(planner.join_leaves({}), order)
            expected = _filter_keys(plan)
            for predicate in order:
                alias = context.single_table_alias(predicate)
                if alias is None:
                    continue
                assert alias in context.query.aliases
                plan = push_filter_to_alias(plan, predicate, alias)
                assert _filter_keys(plan) == expected
                pushes += 1
        assert pushes
        with pytest.raises(ValueError, match="unknown aliases"):
            Query(tables={"t": "title"}, predicate=col("mi_idx", "info") > lit(7.0))


class TestPlannersEndToEnd:
    @pytest.mark.parametrize(
        "planner_class",
        [TPushdownPlanner, TPullupPlanner, TIterPushPlanner, TPushConjPlanner, TCombinedPlanner],
    )
    def test_planner_produces_complete_plan(self, context, planner_class):
        result = planner_class(context).plan()
        assert isinstance(result.plan, ProjectNode)
        assert result.estimated_cost >= 0
        assert result.annotations.projection is not None
        # No planner may lose predicates: all four base predicates appear
        # (TPushConj keeps them inside one complex filter).
        rendered = plan_to_string(result.plan)
        for fragment in ("2000", "1980", "8.0", "7.0"):
            assert fragment in rendered

    def test_tcombined_picks_cheapest_candidate(self, context):
        result = TCombinedPlanner(context).plan()
        candidate_costs = [
            context.planned(candidate).estimated_cost
            for candidate in TCombinedPlanner.CANDIDATES
        ]
        assert result.estimated_cost == pytest.approx(min(candidate_costs))

    def test_tpullup_pulls_expensive_predicate_above_selective_join(self, paper_catalog):
        """The Section 4.2 motivating case: a very selective score predicate
        plus an expensive regex on title -> the regex should end up above the
        join in the TPullup (and TCombined) plan."""
        predicate = and_(
            col("mi_idx", "info") > lit(9.2),
            ilike(col("t", "title"), "%godfather%"),
        )
        query = Query(
            tables={"t": "title", "mi_idx": "movie_info_idx"},
            join_conditions=[JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))],
            predicate=predicate,
        )
        context = PlannerContext.for_query(query, paper_catalog)
        plan = TPullupPlanner(context).plan().plan
        filters_above_join = [
            node for node in collect_filters(plan) if isinstance(node.child, JoinNode)
        ]
        assert any("godfather" in node.predicate.key() for node in filters_above_join)


def _filter_chains(root, below_type) -> list[list]:
    """Each whole stack of filters sitting directly on a ``below_type`` node,
    its predicates listed nearest that node first."""
    chains = []
    for node in root.walk():
        if isinstance(node, FilterNode):
            continue
        for child in node.children:
            chain = []
            while isinstance(child, FilterNode):
                chain.append(child.predicate)
                child = child.child
            if chain and isinstance(child, below_type):
                chains.append(chain[::-1])
    return chains


def _job_contexts(catalog):
    for query in job_query_groups():
        yield PlannerContext.for_query(query, catalog)


class TestFilterStackOrder:
    """A stack of filters runs in its sorted order: the filter nearest its
    input is the first of the planner's sorted list."""

    def test_titerpush_stacks_above_joins_in_benefiting_order(self, imdb_catalog):
        stacked = 0
        for context in _job_contexts(imdb_catalog):
            if context.predicate_tree is None or len(context.query.aliases) < 2:
                continue
            order = context.order_filters(context.predicate_tree.base_predicates())
            rank = {predicate.key(): index for index, predicate in enumerate(order)}
            plan = TIterPushPlanner(context).plan().plan
            for chain in _filter_chains(plan, JoinNode):
                ranks = [rank[predicate.key()] for predicate in chain]
                assert ranks == sorted(ranks)
                stacked += len(chain) > 1
        assert stacked  # some plan keeps two or more filters above its joins

    def test_bdisj_stacks_pushed_conjuncts_most_selective_first(self, imdb_catalog):
        stacked = 0
        for context in _job_contexts(imdb_catalog):
            estimates = context.estimates
            for root in BDisjPlanner(context).plan().roots:
                for chain in _filter_chains(root, TableScanNode):
                    keys = [(estimates.selectivity(p), p.key()) for p in chain]
                    assert keys == sorted(keys)
                    stacked += len(chain) > 1
        assert stacked  # some leaf stacks two or more pushed conjuncts
