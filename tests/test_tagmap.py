"""Unit tests for tag-map construction (Section 3.3 and the naive strategy)."""

import pytest

from repro.core.predtree import PredicateTree
from repro.core.tagmap import TagMapBuilder
from repro.core.tags import Tag
from repro.expr.builders import and_, col, lit, or_
from repro.expr.three_valued import FALSE, TRUE
from repro.plan.logical import FilterNode, JoinNode, ProjectNode, TableScanNode
from repro.plan.query import JoinCondition


@pytest.fixture
def query1_parts():
    p1 = col("t", "production_year") > lit(2000)
    p2 = col("t", "production_year") > lit(1980)
    p3 = col("mi_idx", "info") > lit(8.0)
    p4 = col("mi_idx", "info") > lit(7.0)
    tree = PredicateTree(or_(and_(p1, p4), and_(p2, p3)))
    return tree, p1, p2, p3, p4


def pushdown_plan(p1, p2, p3, p4):
    """The Figure 1 plan: both predicates per table pushed, then one join."""
    left = FilterNode(p2, FilterNode(p1, TableScanNode("t", "title")))
    right = FilterNode(p4, FilterNode(p3, TableScanNode("mi_idx", "movie_info_idx")))
    join = JoinNode(left, right, [JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))])
    return ProjectNode(join)


class TestFilterTagMaps:
    def test_first_filter_splits_empty_tag(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)

        first_filter = plan.child.left.child  # Filter(p1) over Scan(t)
        tag_map = annotations.filter_maps[first_filter.node_id]
        entry = tag_map.entries[Tag.empty()]
        assert entry.pos_tag == Tag({p1.key(): TRUE})
        # The negative side generalizes to clause1 = FALSE.
        clause1 = and_(p1, p4)
        assert entry.neg_tag == Tag({clause1.key(): FALSE})

    def test_second_filter_skips_satisfied_slice(self, query1_parts):
        """Precept 2: tuples already past year>2000 are not re-filtered by year>1980."""
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)

        second_filter = plan.child.left  # Filter(p2)
        tag_map = annotations.filter_maps[second_filter.node_id]
        assert Tag({p1.key(): TRUE}) not in tag_map.entries

    def test_second_filter_drops_dead_negative_output(self, query1_parts):
        """Precept 1: movies from before 1980 cannot satisfy the query."""
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)

        second_filter = plan.child.left
        tag_map = annotations.filter_maps[second_filter.node_id]
        clause1 = and_(p1, p4)
        entry = tag_map.entries[Tag({clause1.key(): FALSE})]
        assert entry.pos_tag is not None
        assert entry.neg_tag is None

    def test_filter_on_predicate_already_assigned_is_skipped(self, query1_parts):
        tree, p1, _p2, _p3, _p4 = query1_parts
        plan = ProjectNode(FilterNode(p1, FilterNode(p1, TableScanNode("t", "title"))))
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        outer_filter = plan.child
        # The second application of the same predicate has no entries at all.
        assert annotations.filter_maps[outer_filter.node_id].entries == {}

    def test_three_valued_adds_unknown_outputs(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=True).build(plan)
        first_filter = plan.child.left.child
        entry = annotations.filter_maps[first_filter.node_id].entries[Tag.empty()]
        assert entry.unk_tag is not None


class TestJoinTagMaps:
    def test_join_omits_dead_pairing(self, query1_parts):
        """The pairing (year in 1981-2000, score in 7.1-8.0) is never joined."""
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)

        join = plan.child
        join_map = annotations.join_maps[join.node_id]
        # Exactly the three pairings of the paper's Section 2.3 example.
        assert len(join_map.entries) == 3

    def test_join_output_tags_are_generalized(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        join_map = annotations.join_maps[plan.child.node_id]
        out_tags = set(join_map.entries.values())
        # The fully-satisfied pairing carries the root = TRUE assignment.
        assert Tag({tree.root_key: TRUE}) in out_tags

    def test_left_right_tag_sets(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        join_map = annotations.join_maps[plan.child.node_id]
        assert len(join_map.left_tags()) == 2
        assert len(join_map.right_tags()) == 2

    def test_output_tag_lookup(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        join_map = annotations.join_maps[plan.child.node_id]
        assert (Tag({"(nope)": TRUE}), Tag.empty()) not in join_map.entries


class TestProjection:
    def test_projection_allows_only_root_true(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        assert annotations.projection is not None
        assert annotations.projection.allowed == {Tag({tree.root_key: TRUE})}
        assert annotations.projection.residual == set()

    def test_projection_residual_for_unapplied_predicates(self, query1_parts):
        """A plan missing filters leaves tags without a verdict: they go to residual."""
        tree, _p1, _p2, _p3, _p4 = query1_parts
        bare = ProjectNode(
            JoinNode(
                TableScanNode("t", "title"),
                TableScanNode("mi_idx", "movie_info_idx"),
                [JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))],
            )
        )
        annotations = TagMapBuilder(tree, three_valued=False).build(bare)
        assert annotations.projection.allowed == set()
        assert annotations.projection.residual == {Tag.empty()}

    def test_no_predicate_tree_allows_everything(self):
        plan = ProjectNode(TableScanNode("t", "title"))
        annotations = TagMapBuilder(None).build(plan)
        assert annotations.projection.allowed == {Tag.empty()}


class TestNaiveStrategy:
    def test_naive_filter_keeps_both_outputs_unreduced(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, naive=True, three_valued=False).build(plan)
        first_filter = plan.child.left.child
        entry = annotations.filter_maps[first_filter.node_id].entries[Tag.empty()]
        assert entry.pos_tag == Tag({p1.key(): TRUE})
        assert entry.neg_tag == Tag({p1.key(): FALSE})

    def test_naive_tag_count_exceeds_generalized(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        naive = TagMapBuilder(tree, naive=True, three_valued=False).build(plan)
        generalized = TagMapBuilder(tree, naive=False, three_valued=False).build(plan)
        assert naive.num_tags() > generalized.num_tags()

    def test_naive_join_takes_full_cartesian_product(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        naive = TagMapBuilder(tree, naive=True, three_valued=False).build(plan)
        join_map = naive.join_maps[plan.child.node_id]
        left_count = len({left for left, _ in join_map.entries})
        right_count = len({right for _, right in join_map.entries})
        assert len(join_map.entries) == left_count * right_count

    def test_naive_projection_still_filters_to_satisfying_tags(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        naive = TagMapBuilder(tree, naive=True, three_valued=False).build(plan)
        assert naive.projection.allowed  # some tags satisfy the root
        for tag in naive.projection.allowed:
            # Every allowed tag must imply the root.
            from repro.core.generalize import generalize_tag, satisfies_root

            assert satisfies_root(tree, generalize_tag(tree, tag))


class TestOutputTagBookkeeping:
    def test_output_tags_recorded_per_node(self, query1_parts):
        tree, p1, p2, p3, p4 = query1_parts
        plan = pushdown_plan(p1, p2, p3, p4)
        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        scan_node = plan.child.left.child.child
        assert annotations.output_tags[scan_node.node_id] == [Tag.empty()]
        assert len(annotations.output_tags[plan.child.node_id]) >= 1

    def test_exponential_blowup_worst_case_still_bounded_by_naive(self):
        """The (X1 v Y1) ^ ... ^ (Xn v Yn) worst case: generalized tags are
        exponential if the plan orders all X filters before all Y filters, but
        never worse than the naive strategy."""
        n = 4
        xs = [col("t", f"x{i}") > lit(0) for i in range(n)]
        ys = [col("t", f"y{i}") > lit(0) for i in range(n)]
        predicate = and_(*[or_(xs[i], ys[i]) for i in range(n)])
        tree = PredicateTree(predicate)

        node = TableScanNode("t", "tbl")
        for predicate_expr in xs + ys:
            node = FilterNode(predicate_expr, node)
        plan = ProjectNode(node)

        generalized = TagMapBuilder(tree, three_valued=False).build(plan)
        naive = TagMapBuilder(tree, naive=True, three_valued=False).build(plan)
        assert generalized.num_tags() <= naive.num_tags()

    @pytest.mark.parametrize("n", (3, 5, 7))
    def test_interleaved_ordering_keeps_tags_linear(self, n):
        """The same predicate filtered X1, Y1, X2, Y2, ... needs at most 4n+2
        tags (Section 3.2, "Limitations")."""
        xs = [col("t", f"x{i}") > lit(0) for i in range(n)]
        ys = [col("t", f"y{i}") > lit(0) for i in range(n)]
        tree = PredicateTree(and_(*[or_(x, y) for x, y in zip(xs, ys)]))

        node = TableScanNode("t", "tbl")
        for predicate_expr in (p for pair in zip(xs, ys) for p in pair):
            node = FilterNode(predicate_expr, node)
        annotations = TagMapBuilder(tree, three_valued=False).build(ProjectNode(node))
        assert annotations.num_tags() <= 4 * n + 2
