"""Unit tests for logical plan nodes, rewrites and the query descriptor."""

import pytest

from repro.expr.builders import col, lit
from repro.plan.logical import (
    FilterNode,
    JoinNode,
    ProjectNode,
    TableScanNode,
    collect_filters,
    collect_joins,
    plan_to_string,
    remove_filter,
)
from repro.plan.query import JoinCondition, Query


@pytest.fixture
def sample_plan():
    p1 = col("t", "year") > lit(2000)
    p2 = col("mi", "score") > lit(8.0)
    left = FilterNode(p1, TableScanNode("t", "title"))
    right = FilterNode(p2, TableScanNode("mi", "movie_info_idx"))
    join = JoinNode(left, right, [JoinCondition(col("t", "id"), col("mi", "movie_id"))])
    return ProjectNode(join), p1, p2


class TestPlanNodes:
    def test_aliases_propagate(self, sample_plan):
        plan, _p1, _p2 = sample_plan
        assert plan.aliases == frozenset({"t", "mi"})
        assert plan.child.left.aliases == frozenset({"t"})

    def test_walk_order(self, sample_plan):
        plan, _p1, _p2 = sample_plan
        labels = [type(node).__name__ for node in plan.walk()]
        assert labels[0] == "ProjectNode"
        assert labels.count("FilterNode") == 2
        assert labels.count("TableScanNode") == 2

    def test_node_ids_are_unique(self, sample_plan):
        plan, _p1, _p2 = sample_plan
        ids = [node.node_id for node in plan.walk()]
        assert len(ids) == len(set(ids))

    def test_labels(self, sample_plan):
        plan, p1, _p2 = sample_plan
        assert "Project" in plan.label()
        assert p1.key() in plan.child.left.label()
        assert "Join" in plan.child.label()

    def test_join_requires_conditions(self):
        with pytest.raises(ValueError):
            JoinNode(TableScanNode("a", "a"), TableScanNode("b", "b"), [])

    def test_plan_to_string_indents(self, sample_plan):
        plan, _p1, _p2 = sample_plan
        rendered = plan_to_string(plan)
        assert rendered.splitlines()[0].startswith("Project")
        assert any(line.startswith("    ") for line in rendered.splitlines())


class TestRewrites:
    def test_with_children_produces_fresh_nodes(self, sample_plan):
        plan, _p1, _p2 = sample_plan

        def clone(node):
            return node.with_children([clone(child) for child in node.children])

        cloned = clone(plan)
        assert plan_to_string(cloned) == plan_to_string(plan)
        original_ids = {node.node_id for node in plan.walk()}
        cloned_ids = {node.node_id for node in cloned.walk()}
        assert original_ids.isdisjoint(cloned_ids)

    def test_collect_filters_and_joins(self, sample_plan):
        plan, _p1, _p2 = sample_plan
        assert len(collect_filters(plan)) == 2
        assert len(collect_joins(plan)) == 1

    def test_remove_filter(self, sample_plan):
        plan, p1, _p2 = sample_plan
        removed = remove_filter(plan, p1.key())
        assert len(collect_filters(removed)) == 1
        assert isinstance(removed.child.left, TableScanNode)
        # Original plan untouched; the subtree off the rewritten path is shared.
        assert len(collect_filters(plan)) == 2
        assert removed.child.right is plan.child.right

    def test_remove_missing_filter_raises(self, sample_plan):
        plan, _p1, _p2 = sample_plan
        with pytest.raises(ValueError):
            remove_filter(plan, "(nonexistent)")


class TestQueryDescriptor:
    def test_requires_tables(self):
        with pytest.raises(ValueError):
            Query(tables={})

    def test_join_condition_alias_validation(self):
        with pytest.raises(ValueError, match="unknown aliases"):
            Query(
                tables={"a": "ta"},
                join_conditions=[JoinCondition(col("a", "x"), col("b", "y"))],
            )

    def test_predicate_alias_validation(self):
        with pytest.raises(ValueError, match="unknown aliases"):
            Query(tables={"a": "ta"}, predicate=col("z", "x") > lit(1))

    def test_select_alias_validation(self):
        with pytest.raises(ValueError):
            Query(tables={"a": "ta"}, select=[col("b", "x")])

    def test_predicate_is_flattened(self):
        from repro.expr.ast import AndExpr

        nested = AndExpr([col("a", "x") > lit(1), AndExpr([col("a", "y") > lit(2), col("a", "z") > lit(3)])])
        query = Query(tables={"a": "ta"}, predicate=nested)
        assert len(query.predicate.children()) == 3

    def test_base_predicates_deduplicated(self):
        shared = col("a", "x") > lit(1)
        from repro.expr.builders import and_, or_

        query = Query(
            tables={"a": "ta"},
            predicate=or_(and_(shared, col("a", "y") > lit(2)), and_(shared, col("a", "z") > lit(3))),
        )
        keys = [predicate.key() for predicate in query.base_predicates()]
        assert len(keys) == len(set(keys)) == 3

    def test_conditions_between(self, paper_query):
        conditions = paper_query.conditions_between(frozenset({"t"}), frozenset({"mi_idx"}))
        assert len(conditions) == 1
        assert paper_query.conditions_between(frozenset({"t"}), frozenset({"t"})) == []

    def test_join_condition_helpers(self):
        condition = JoinCondition(col("a", "x"), col("b", "y"))
        assert condition.aliases() == frozenset({"a", "b"})
        assert condition.side_for("a").key() == "a.x"
        assert condition.other_alias("a") == "b"
        with pytest.raises(KeyError):
            condition.side_for("z")
        with pytest.raises(KeyError):
            condition.other_alias("z")

    def test_join_condition_key_is_orientation_insensitive(self):
        forward = JoinCondition(col("a", "x"), col("b", "y"))
        backward = JoinCondition(col("b", "y"), col("a", "x"))
        assert forward.key() == backward.key()

    def test_str_representation(self, paper_query):
        rendered = str(paper_query)
        assert "title AS t" in rendered
        assert "WHERE" in rendered
