"""Unit tests for tagged relations and the tagged operators on the paper's example."""

import pytest

from repro.core.operators import (
    TaggedFilterOperator,
    TaggedJoinOperator,
    TaggedProjectOperator,
)
from repro.core.predtree import PredicateTree
from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import FilterEntry, FilterTagMap, JoinTagMap, ProjectionTagSet, TagMapBuilder
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.expr.builders import col, lit
from repro.expr.three_valued import FALSE, TRUE
from repro.plan.logical import FilterNode, JoinNode, ProjectNode, TableScanNode
from repro.plan.query import JoinCondition
from repro.storage.bitmap import Bitmap


@pytest.fixture
def title_table(paper_catalog):
    return paper_catalog.get("title")


@pytest.fixture
def mi_table(paper_catalog):
    return paper_catalog.get("movie_info_idx")


class TestTaggedRelation:
    def test_from_base_table(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        assert relation.num_rows == 7
        assert relation.tags() == [Tag.empty()]
        assert relation.slice_cardinality(Tag.empty()) == 7
        assert relation.total_tuples() == 7

    def test_empty_slices_are_dropped(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        derived = relation.with_slices({Tag({"p": TRUE}): Bitmap.empty(7)})
        assert derived.tags() == []

    def test_mutual_exclusivity_check(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        overlapping = relation.with_slices(
            {
                Tag({"p": TRUE}): Bitmap.from_positions(7, [0, 1]),
                Tag({"p": FALSE}): Bitmap.from_positions(7, [1, 2]),
            }
        )
        assert not overlapping.check_mutually_exclusive()
        disjoint = relation.with_slices(
            {
                Tag({"p": TRUE}): Bitmap.from_positions(7, [0, 1]),
                Tag({"p": FALSE}): Bitmap.from_positions(7, [2]),
            }
        )
        assert disjoint.check_mutually_exclusive()

    def test_bitmap_size_mismatch_rejected(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        with pytest.raises(ValueError):
            relation.with_slices({Tag.empty(): Bitmap.empty(3)})

    def test_slice_bitmap_of_absent_tag_is_empty(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        assert relation.slice_bitmap(Tag({"p": TRUE})).is_empty()

    def test_materialize_rows(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        rows = relation.materialize_rows()
        assert rows[0] == {"t": 0}
        assert len(rows) == 7

    def test_active_bitmap_unions_slices(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table).with_slices(
            {
                Tag({"p": TRUE}): Bitmap.from_positions(7, [0]),
                Tag({"p": FALSE}): Bitmap.from_positions(7, [3, 4]),
            }
        )
        assert relation.active_bitmap().count() == 3


class TestTaggedFilter:
    def test_filter_splits_by_predicate(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        predicate = col("t", "production_year") > lit(2000)
        pos = Tag({predicate.key(): TRUE})
        neg = Tag({predicate.key(): FALSE})
        tag_map = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=pos, neg_tag=neg)})
        context = ExecContext()
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, context)
        # Movies after 2000: rows 0, 1, 6 (Dark Knight, Evolution, Avatar).
        assert set(output.slice_bitmap(pos).positions().tolist()) == {0, 1, 6}
        assert output.slice_cardinality(neg) == 4
        assert context.metrics.predicate_rows_evaluated == 7
        assert output.check_mutually_exclusive()

    def test_filter_drops_rows_when_output_tag_missing(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        predicate = col("t", "production_year") > lit(2000)
        pos = Tag({predicate.key(): TRUE})
        tag_map = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=pos, neg_tag=None)})
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, ExecContext())
        assert output.total_tuples() == 3

    def test_filter_passes_unmatched_slices_untouched(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        other_tag = Tag({"(x)": TRUE})
        relation = relation.with_slices({other_tag: Bitmap.from_positions(7, [2, 3])})
        predicate = col("t", "production_year") > lit(2000)
        tag_map = FilterTagMap({})  # no entries at all
        context = ExecContext()
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, context)
        assert output.slice_cardinality(other_tag) == 2
        assert context.metrics.predicate_rows_evaluated == 0

    def test_filter_merges_slices_sharing_output_tag(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        a = Tag({"(a)": TRUE})
        b = Tag({"(b)": TRUE})
        relation = relation.with_slices(
            {a: Bitmap.from_positions(7, [0, 1]), b: Bitmap.from_positions(7, [2, 6])}
        )
        predicate = col("t", "production_year") > lit(2000)
        merged = Tag({"(merged)": TRUE})
        tag_map = FilterTagMap(
            {
                a: FilterEntry(pos_tag=merged),
                b: FilterEntry(pos_tag=merged),
            }
        )
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, ExecContext())
        # Rows 0, 1 from slice a and row 6 from slice b pass the predicate.
        assert output.slice_cardinality(merged) == 3

    def test_filter_requires_alias_present(self, mi_table):
        relation = TaggedRelation.from_base_table("mi_idx", mi_table)
        predicate = col("t", "production_year") > lit(2000)
        tag_map = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=Tag({"x": TRUE}))})
        with pytest.raises(ValueError, match="aliases"):
            TaggedFilterOperator(predicate, tag_map).execute(relation, ExecContext())


class TestTaggedJoin:
    def _filtered_sides(self, title_table, mi_table):
        """Build the paper's Example 2 and Example 3 tagged relations."""
        p1 = col("t", "production_year") > lit(2000)
        p2 = col("t", "production_year") > lit(1980)
        p3 = col("mi_idx", "info") > lit(8.0)
        p4 = col("mi_idx", "info") > lit(7.0)

        left = TaggedRelation.from_base_table("t", title_table).with_slices(
            {
                Tag({p1.key(): TRUE}): Bitmap.from_positions(7, [0, 1, 6]),
                Tag({p1.key(): FALSE, p2.key(): TRUE}): Bitmap.from_positions(7, [2, 3, 5]),
            }
        )
        right = TaggedRelation.from_base_table("mi_idx", mi_table).with_slices(
            {
                Tag({p3.key(): TRUE}): Bitmap.from_positions(6, [0, 1, 2, 3]),
                Tag({p3.key(): FALSE, p4.key(): TRUE}): Bitmap.from_positions(6, [4, 5]),
            }
        )
        return left, right, p1, p2, p3, p4

    def test_join_follows_tag_map_and_skips_dead_pairing(self, title_table, mi_table):
        left, right, p1, p2, p3, p4 = self._filtered_sides(title_table, mi_table)
        out_a = Tag({"(clause1) = T": TRUE})
        out_b = Tag({"(clause2 only) = T": TRUE})
        tag_map = JoinTagMap(
            {
                (Tag({p1.key(): TRUE}), Tag({p3.key(): TRUE})): out_a,
                (Tag({p1.key(): TRUE}), Tag({p3.key(): FALSE, p4.key(): TRUE})): out_a,
                (Tag({p1.key(): FALSE, p2.key(): TRUE}), Tag({p3.key(): TRUE})): out_b,
            }
        )
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        context = ExecContext()
        output = TaggedJoinOperator([condition], tag_map).execute(left, right, context)

        # Example 4: Dark Knight and Avatar under clause 1; Shawshank and Pulp
        # Fiction under the clause-2-only tag.  Beetlejuice (1988, score 7.5)
        # is never joined.
        assert output.slice_cardinality(out_a) == 2
        assert output.slice_cardinality(out_b) == 2
        assert output.total_tuples() == 4
        assert context.metrics.join_output_rows == 4
        title_indices = set(output.indices["t"].tolist())
        assert 5 not in title_indices  # Beetlejuice's row never materialized

    def test_join_with_no_matching_tags_is_empty(self, title_table, mi_table):
        left, right, p1, _p2, p3, _p4 = self._filtered_sides(title_table, mi_table)
        tag_map = JoinTagMap({(Tag({"(zzz)": TRUE}), Tag({p3.key(): TRUE})): Tag.empty()})
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        output = TaggedJoinOperator([condition], tag_map).execute(left, right, ExecContext())
        assert output.total_tuples() == 0

    def test_join_requires_conditions(self):
        with pytest.raises(ValueError):
            TaggedJoinOperator([], JoinTagMap({}))

    def test_join_output_indices_reference_base_tables(self, title_table, mi_table):
        left, right, p1, p2, p3, p4 = self._filtered_sides(title_table, mi_table)
        out = Tag.empty()
        tag_map = JoinTagMap(
            {
                (Tag({p1.key(): TRUE}), Tag({p3.key(): TRUE})): out,
            }
        )
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        output = TaggedJoinOperator([condition], tag_map).execute(left, right, ExecContext())
        for position in range(output.num_rows):
            title_row = output.indices["t"][position]
            mi_row = output.indices["mi_idx"][position]
            assert title_table.row(title_row)["id"] == mi_table.row(mi_row)["movie_id"]


class TestTaggedProjection:
    def test_projection_selects_allowed_tags_only(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table).with_slices(
            {
                Tag({"(keep)": TRUE}): Bitmap.from_positions(7, [0, 2]),
                Tag({"(drop)": TRUE}): Bitmap.from_positions(7, [1]),
            }
        )
        projection = ProjectionTagSet(allowed={Tag({"(keep)": TRUE})})
        positions = TaggedProjectOperator(projection).execute(relation, ExecContext())
        assert positions.tolist() == [0, 2]

    def test_projection_residual_evaluates_predicate(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        predicate = col("t", "production_year") > lit(2000)
        projection = ProjectionTagSet(allowed=set(), residual={Tag.empty()})
        context = ExecContext()
        positions = TaggedProjectOperator(projection, residual_predicate=predicate).execute(
            relation, context
        )
        assert set(positions.tolist()) == {0, 1, 6}
        assert context.metrics.residual_rows_evaluated == 7

    def test_projection_residual_without_predicate_raises(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        projection = ProjectionTagSet(allowed=set(), residual={Tag.empty()})
        with pytest.raises(ValueError):
            TaggedProjectOperator(projection).execute(relation, ExecContext())


class TestFullTaggedPipeline:
    def test_query1_pipeline_matches_paper_example4(self, paper_catalog, paper_query):
        """Run the Figure 1 plan manually through the tagged operators."""
        tree = PredicateTree(paper_query.predicate)
        p1 = col("t", "production_year") > lit(2000)
        p2 = col("t", "production_year") > lit(1980)
        p3 = col("mi_idx", "info") > lit(8.0)
        p4 = col("mi_idx", "info") > lit(7.0)
        left = FilterNode(p2, FilterNode(p1, TableScanNode("t", "title")))
        right = FilterNode(p4, FilterNode(p3, TableScanNode("mi_idx", "movie_info_idx")))
        join = JoinNode(left, right, [JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))])
        plan = ProjectNode(join)

        annotations = TagMapBuilder(tree, three_valued=False).build(plan)
        from repro.physical.compile import compile_plan
        from tests.conftest import hand_built_plan

        output = compile_plan(
            hand_built_plan("tagged", [plan], annotations, tree), paper_catalog
        ).execute(ExecContext())
        titles = {
            row[output.names.index("t.title")]
            for row in zip(*[values.tolist() for values, _ in output.columns])
        }
        assert titles == {
            "The Dark Knight",
            "Avatar",
            "The Shawshank Redemption",
            "Pulp Fiction",
        }
