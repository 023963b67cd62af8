"""Unit tests for tagged relations and the tagged operators on the paper's example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.storage.column import ColumnType
from repro.storage.table import Table
from tests.conftest import sliced_relation


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
        assert relation.tags == (Tag.empty(),)
        assert relation.slice_ids is None
        assert relation.slice_positions(Tag.empty()).tolist() == list(range(7))

    def test_empty_slices_are_dropped(self, title_table):
        # No production year is NULL: the UNKNOWN output tag gets no rows.
        a, b, c = (Tag({f"({name})": TRUE}) for name in "abc")
        predicate = col("t", "production_year") > lit(2000)
        tag_map = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=a, neg_tag=b, unk_tag=c)})
        relation = TaggedRelation.from_base_table("t", title_table)
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, ExecContext())
        assert set(output.tags) == {a, b}
        assert output.slice_positions(a).tolist() == [0, 1, 6]
        empty = {"t": np.empty(0, dtype=np.int64)}
        assert TaggedRelation({"t": title_table}, empty, [a]).tags == ()

    def test_slice_id_length_mismatch_rejected(self, title_table):
        tags = [Tag({"p": TRUE}), Tag({"p": FALSE})]
        with pytest.raises(ValueError):
            TaggedRelation({"t": title_table}, {"t": np.arange(7)}, tags, np.zeros(3, np.int64))
        with pytest.raises(ValueError):
            TaggedRelation({"t": title_table}, {"t": np.arange(7)}, tags)

    def test_slice_positions_of_absent_tag_is_empty(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        assert relation.slice_positions(Tag({"p": TRUE})).size == 0

    def test_materialize_rows(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        rows = relation.materialize_rows()
        assert rows[0] == {"t": 0}
        assert len(rows) == 7

    def test_rows_are_the_union_of_slices(self, title_table):
        relation = sliced_relation(
            "t", title_table, {Tag({"p": TRUE}): [0], Tag({"p": FALSE}): [3, 4]}
        )
        assert relation.num_rows == 3
        assert sum(relation.slice_positions(tag).size for tag in relation.tags) == 3
        assert relation.materialize_rows(Tag({"p": FALSE})) == [{"t": 3}, {"t": 4}]


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
        assert set(output.indices["t"][output.slice_positions(pos)].tolist()) == {0, 1, 6}
        assert output.slice_positions(neg).size == 4
        assert context.metrics.predicate_rows_evaluated == 7
        assert output.num_rows == 7  # each row in exactly one slice

    def test_filter_drops_rows_when_output_tag_missing(self, title_table):
        relation = TaggedRelation.from_base_table("t", title_table)
        predicate = col("t", "production_year") > lit(2000)
        pos = Tag({predicate.key(): TRUE})
        tag_map = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=pos, neg_tag=None)})
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, ExecContext())
        assert output.num_rows == 3

    def test_filter_passes_unmatched_slices_untouched(self, title_table):
        other_tag = Tag({"(x)": TRUE})
        relation = sliced_relation("t", title_table, {other_tag: [2, 3]})
        predicate = col("t", "production_year") > lit(2000)
        tag_map = FilterTagMap({})  # no entries at all
        context = ExecContext()
        output = TaggedFilterOperator(predicate, tag_map).execute(relation, context)
        assert output.slice_positions(other_tag).size == 2
        assert context.metrics.predicate_rows_evaluated == 0

    def test_filter_merges_slices_sharing_output_tag(self, title_table):
        a = Tag({"(a)": TRUE})
        b = Tag({"(b)": TRUE})
        relation = sliced_relation("t", title_table, {a: [0, 1], b: [2, 6]})
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
        assert output.slice_positions(merged).size == 3

    def test_filter_requires_alias_present(self, mi_table):
        relation = TaggedRelation.from_base_table("mi_idx", mi_table)
        predicate = col("t", "production_year") > lit(2000)
        tag_map = FilterTagMap({Tag.empty(): FilterEntry(pos_tag=Tag({"x": TRUE}))})
        with pytest.raises(ValueError, match="aliases"):
            TaggedFilterOperator(predicate, tag_map).execute(relation, ExecContext())


IN_TAGS = tuple(Tag({f"(in{index})": TRUE}) for index in range(4))
OUT_TAGS = (Tag({"(out0)": TRUE}), Tag({"(out1)": TRUE}))
THRESHOLD = 4


@st.composite
def routing_cases(draw):
    """A relation over 1-4 input tags, a filter tag map over some of them, and
    a nullable column (NULLs make UNKNOWN outcomes).  Output tags come from a
    small pool that includes the input tags, so routes collide with each other
    and with passthrough slices."""
    num_tags = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 40))
    values = draw(st.lists(st.none() | st.integers(0, 9), min_size=num_rows, max_size=num_rows))
    row_tags = draw(
        st.lists(st.integers(0, num_tags - 1), min_size=num_rows, max_size=num_rows)
    )
    rows = sorted(
        draw(st.sets(st.integers(0, num_rows - 1), min_size=1, max_size=num_rows))
    )
    out_pool = st.none() | st.sampled_from(OUT_TAGS + IN_TAGS[:num_tags])
    entries = {}
    for tag in IN_TAGS[:num_tags]:
        if draw(st.booleans()):  # otherwise a passthrough slice
            entries[tag] = FilterEntry(
                pos_tag=draw(out_pool), neg_tag=draw(out_pool), unk_tag=draw(out_pool)
            )
    return values, row_tags, rows, entries


def _reference_route(values, row_tags, rows, entries):
    """Row at a time: tag -> entry -> outcome -> output tag, or drop."""
    routed = []
    for row in rows:
        tag = IN_TAGS[row_tags[row]]
        entry = entries.get(tag)
        if entry is None:
            out = tag
        elif values[row] is None:
            out = entry.unk_tag
        else:
            out = entry.pos_tag if values[row] > THRESHOLD else entry.neg_tag
        if out is not None:
            routed.append((row, out))
    return routed


class TestFilterRoutingProperty:
    @settings(max_examples=150, deadline=None)
    @given(routing_cases())
    def test_filter_matches_row_at_a_time_routing(self, case):
        values, row_tags, rows, entries = case
        table = Table.from_dict("t", {"v": values}, types={"v": ColumnType.INT})
        slices = {
            tag: [row for row in rows if IN_TAGS[row_tags[row]] == tag] for tag in IN_TAGS
        }
        relation = sliced_relation("t", table, slices)
        context = ExecContext()
        predicate = col("t", "v") > lit(THRESHOLD)
        output = TaggedFilterOperator(predicate, FilterTagMap(entries)).execute(relation, context)

        expected = _reference_route(values, row_tags, rows, entries)
        row_tag = [None] * output.num_rows
        for tag in output.tags:
            assert output.indices["t"][output.slice_positions(tag)].tolist() == [
                row for row, out in expected if out == tag
            ]
            for position in output.slice_positions(tag).tolist():
                row_tag[position] = tag
        assert list(zip(output.indices["t"].tolist(), row_tag)) == expected
        assert context.metrics.slices_created == len({out for _row, out in expected})
        assert len(output.tags) == len(set(output.tags))
        evaluated = [row for row in rows if IN_TAGS[row_tags[row]] in entries]
        assert context.metrics.predicate_rows_evaluated == len(evaluated)
        assert context.metrics.predicate_evaluations == (1 if evaluated else 0)


class TestTaggedJoin:
    def _filtered_sides(self, title_table, mi_table):
        """Build the paper's Example 2 and Example 3 tagged relations."""
        p1 = col("t", "production_year") > lit(2000)
        p2 = col("t", "production_year") > lit(1980)
        p3 = col("mi_idx", "info") > lit(8.0)
        p4 = col("mi_idx", "info") > lit(7.0)

        left = sliced_relation(
            "t",
            title_table,
            {
                Tag({p1.key(): TRUE}): [0, 1, 6],
                Tag({p1.key(): FALSE, p2.key(): TRUE}): [2, 3, 5],
            },
        )
        right = sliced_relation(
            "mi_idx",
            mi_table,
            {
                Tag({p3.key(): TRUE}): [0, 1, 2, 3],
                Tag({p3.key(): FALSE, p4.key(): TRUE}): [4, 5],
            },
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
        assert output.slice_positions(out_a).size == 2
        assert output.slice_positions(out_b).size == 2
        assert output.num_rows == 4
        assert context.metrics.join_output_rows == 4
        title_indices = set(output.indices["t"].tolist())
        assert 5 not in title_indices  # Beetlejuice's row never materialized

    def test_join_with_no_matching_tags_is_empty(self, title_table, mi_table):
        left, right, p1, _p2, p3, _p4 = self._filtered_sides(title_table, mi_table)
        tag_map = JoinTagMap({(Tag({"(zzz)": TRUE}), Tag({p3.key(): TRUE})): Tag.empty()})
        condition = JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))
        output = TaggedJoinOperator([condition], tag_map).execute(left, right, ExecContext())
        assert output.num_rows == 0

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
        relation = sliced_relation(
            "t", title_table, {Tag({"(keep)": TRUE}): [0, 2], Tag({"(drop)": TRUE}): [1]}
        )
        projection = ProjectionTagSet(allowed={Tag({"(keep)": TRUE})})
        positions = TaggedProjectOperator(projection).execute(relation, ExecContext())
        assert relation.indices["t"][positions].tolist() == [0, 2]

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
        ).run(ExecContext())
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
