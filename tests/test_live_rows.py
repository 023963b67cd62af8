"""Live-row tagged relations: the slice-id representation, the
routing step the filter and the join share, and the row order every operator
keeps when it compacts its output."""

import numpy as np
import pytest

from repro.core.operators import (
    TaggedFilterOperator,
    TaggedJoinOperator,
    TaggedProjectOperator,
    _route,
)
from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import FilterEntry, FilterTagMap, JoinTagMap, ProjectionTagSet
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.expr.builders import col, lit
from repro.expr.three_valued import TRUE
from repro.plan.query import JoinCondition
from repro.storage.column import ColumnType
from repro.storage.table import Table
from tests.conftest import sliced_relation

A, B, C = (Tag({f"({name})": TRUE}) for name in "abc")
EMPTY = Tag.empty()
#: ``t.v > 4``: TRUE on rows 5-9, FALSE on rows 0-3, UNKNOWN on row 4 (NULL).
ABOVE_FOUR = col("t", "v") > lit(4)


@pytest.fixture
def table():
    return Table.from_dict(
        "t",
        {"id": list(range(10)), "v": [0, 1, 2, 3, None, 5, 6, 7, 8, 9]},
        types={"id": ColumnType.INT, "v": ColumnType.INT},
    )


@pytest.fixture
def probe_table():
    return Table.from_dict(
        "u", {"fk": [4, 0, 2, 0, 9, 5, 1]}, types={"fk": ColumnType.INT}
    )


def _relation(table, rows, tags, slice_ids=None, alias="t"):
    ids = None if slice_ids is None else np.asarray(slice_ids, dtype=np.int64)
    return TaggedRelation({alias: table}, {alias: np.asarray(rows)}, tags, ids)


def _filter(relation, entries, context=None):
    operator = TaggedFilterOperator(ABOVE_FOUR, FilterTagMap(entries))
    return operator.execute(relation, context or ExecContext())


class TestRepresentation:
    def test_one_tag_drops_slice_ids(self, table):
        relation = _relation(table, [0, 1, 2], [A], [0, 0, 0])
        assert relation.slice_ids is None
        assert relation.slice_positions(A).tolist() == [0, 1, 2]

    def test_relation_without_rows_has_no_tags(self, table):
        relation = _relation(table, [], [A, B])
        assert relation.num_rows == 0
        assert relation.tags == ()
        assert relation.slice_ids is None

    def test_relation_without_aliases_is_empty(self):
        relation = TaggedRelation({}, {}, [A])
        assert relation.num_rows == 0
        assert relation.tags == ()
        assert relation.aliases == []

    def test_differing_index_lengths_rejected(self, table):
        with pytest.raises(ValueError, match="differing lengths"):
            TaggedRelation(
                {"t": table, "s": table}, {"t": np.arange(3), "s": np.arange(4)}, [A]
            )

    def test_slice_id_error_names_both_lengths(self, table):
        with pytest.raises(ValueError, match="cover 2 rows, the relation has 3"):
            _relation(table, [0, 1, 2], [A, B], [0, 1])

    def test_indices_are_stored_as_int64(self, table):
        relation = _relation(table, np.array([3, 1], dtype=np.int32), [A])
        assert relation.indices["t"].dtype == np.int64

    def test_constructor_copies_its_mappings(self, table):
        tables, indices = {"t": table}, {"t": np.arange(3)}
        relation = TaggedRelation(tables, indices, [A])
        tables.clear()
        indices["s"] = np.arange(5)
        assert relation.aliases == ["t"]
        assert list(relation.tables) == ["t"]

    def test_tags_are_a_tuple(self, table):
        assert _relation(table, [0, 1], [A, B], [1, 0]).tags == (A, B)

    def test_slice_positions_are_ascending_and_partition_the_rows(self, table):
        relation = _relation(table, range(9), [A, B, C], [2, 0, 1, 0, 2, 2, 1, 0, 1])
        parts = [relation.slice_positions(tag).tolist() for tag in relation.tags]
        assert parts == [[1, 3, 7], [2, 6, 8], [0, 4, 5]]
        assert sorted(sum(parts, [])) == list(range(9))

    @pytest.mark.parametrize("tags, slice_ids", [([A], None), ([A, B], [1, 0, 1])])
    def test_slice_positions_are_int64(self, table, tags, slice_ids):
        relation = _relation(table, [4, 5, 6], tags, slice_ids)
        assert relation.slice_positions(tags[0]).dtype == np.int64

    def test_from_scan_keeps_positions_in_the_order_given(self, table):
        relation = TaggedRelation.from_scan("t", table, np.array([5, 2, 7]))
        assert relation.indices["t"].tolist() == [5, 2, 7]
        assert relation.tags == (EMPTY,)
        assert relation.slice_ids is None

    def test_repr_mentions_rows_and_slices(self, table):
        text = repr(_relation(table, [0, 1, 2], [A, B], [0, 1, 1]))
        assert "rows=3" in text
        assert "slices=2" in text

    def test_row_keys_columns_follow_sorted_aliases(self, table):
        relation = TaggedRelation(
            {"z": table, "a": table}, {"z": np.array([7, 8]), "a": np.array([1, 2])}, [A]
        )
        assert relation.row_keys().tolist() == [[1, 7], [2, 8]]

    def test_row_keys_without_aliases_is_empty(self):
        assert TaggedRelation({}, {}, ()).row_keys().shape == (0, 0)

    def test_materialize_rows_of_absent_tag_is_empty(self, table):
        assert _relation(table, [0, 1], [A]).materialize_rows(B) == []


class TestRoute:
    def test_every_row_to_one_tag_keeps_every_row(self):
        assert _route(np.array([0, 1, 2]), [0, 0, 0], [A]) == (None, [A], None)

    def test_dropped_rows_leave_ascending_positions(self):
        keep, tags, out_ids = _route(np.array([0, 1, 0, 1]), [0, -1], [A])
        assert keep.tolist() == [0, 2]
        assert tags == [A]
        assert out_ids is None

    def test_several_tags_give_each_row_an_id(self):
        keep, tags, out_ids = _route(np.array([0, 1, 1, 0]), [0, 1], [A, B])
        assert keep is None
        assert tags == [A, B]
        assert out_ids.tolist() == [0, 1, 1, 0]

    def test_a_tag_without_rows_is_left_out(self):
        assert _route(np.array([1, 1]), [0, 1, 2], [A, B, C]) == (None, [B], None)

    def test_unused_tags_are_renumbered_away(self):
        keep, tags, out_ids = _route(np.array([2, 0, 2]), [0, 1, 2], [A, B, C])
        assert keep is None
        assert tags == [A, C]
        assert out_ids.tolist() == [1, 0, 1]

    def test_every_row_dropped(self):
        keep, tags, out_ids = _route(np.array([0, 0]), [-1], [])
        assert keep.tolist() == []
        assert tags == []
        assert out_ids is None

    def test_two_routes_to_one_tag_merge(self):
        keep, tags, out_ids = _route(np.array([0, 1, 2]), [1, 1, 0], [A, B])
        assert keep is None
        assert tags == [A, B]
        assert out_ids.tolist() == [1, 1, 0]

    def test_uint8_cells_index_the_table(self):
        cell = np.array([0, 1, 2, 1], dtype=np.uint8)
        keep, tags, out_ids = _route(cell, [-1, 0, 1], [A, B])
        assert keep.tolist() == [1, 2, 3]
        assert tags == [A, B]
        assert out_ids.tolist() == [0, 1, 0]

    def test_a_drop_route_no_row_takes_keeps_every_row(self):
        assert _route(np.array([1, 1]), [-1, 0, 1], [A, B]) == (None, [A], None)


class TestFilterOutput:
    def test_output_holds_only_kept_rows_in_ascending_order(self, table):
        relation = TaggedRelation.from_base_table("t", table)
        output = _filter(relation, {EMPTY: FilterEntry(pos_tag=A)})
        assert output.indices["t"].tolist() == [5, 6, 7, 8, 9]
        assert output.tags == (A,)
        assert output.slice_ids is None

    def test_null_rows_go_to_the_unknown_tag(self, table):
        relation = TaggedRelation.from_base_table("t", table)
        output = _filter(relation, {EMPTY: FilterEntry(pos_tag=A, neg_tag=B, unk_tag=C)})
        assert output.num_rows == 10
        assert output.indices["t"][output.slice_positions(C)].tolist() == [4]
        assert output.indices["t"][output.slice_positions(B)].tolist() == [0, 1, 2, 3]

    def test_passthrough_only_returns_the_input(self, table):
        relation = sliced_relation("t", table, {A: [1, 2], B: [7]})
        context = ExecContext()
        assert _filter(relation, {C: FilterEntry(pos_tag=C)}, context) is relation
        assert context.metrics.predicate_evaluations == 0
        assert context.metrics.slices_created == 2

    def test_one_matching_tag_evaluates_every_row(self, table):
        context = ExecContext()
        _filter(TaggedRelation.from_base_table("t", table), {EMPTY: FilterEntry(A, B)}, context)
        assert context.metrics.predicate_rows_evaluated == 10
        assert context.metrics.predicate_evaluations == 1

    def test_only_the_matching_slices_are_evaluated(self, table):
        relation = sliced_relation("t", table, {A: [0, 2, 4, 6, 8], B: [1, 3, 5, 7, 9]})
        context = ExecContext()
        output = _filter(relation, {A: FilterEntry(pos_tag=C)}, context)
        assert context.metrics.predicate_rows_evaluated == 5
        assert output.tags == (C, B)
        assert output.indices["t"].tolist() == [1, 3, 5, 6, 7, 8, 9]
        assert output.indices["t"][output.slice_positions(C)].tolist() == [6, 8]

    def test_dropping_every_row_leaves_an_empty_relation(self, table):
        output = _filter(TaggedRelation.from_base_table("t", table), {EMPTY: FilterEntry()})
        assert output.num_rows == 0
        assert output.tags == ()
        assert output.slice_ids is None

    def test_a_route_back_to_a_passthrough_tag_merges_with_it(self, table):
        relation = sliced_relation("t", table, {A: [0, 2, 4, 6, 8], B: [1, 3, 5, 7, 9]})
        output = _filter(relation, {A: FilterEntry(pos_tag=B)})
        assert output.tags == (B,)
        assert output.slice_ids is None
        assert output.indices["t"].tolist() == [1, 3, 5, 6, 7, 8, 9]


class TestJoinOutput:
    CONDITION = JoinCondition(col("t", "id"), col("u", "fk"))

    def _join(self, left, right, entries, context=None):
        operator = TaggedJoinOperator([self.CONDITION], JoinTagMap(entries))
        return operator.execute(left, right, context or ExecContext())

    def test_rows_of_unpaired_slices_never_reach_the_output(self, table, probe_table):
        left = sliced_relation("t", table, {A: [0, 1, 2], B: [3, 4, 5]})
        right = TaggedRelation.from_base_table("u", probe_table)
        output = self._join(left, right, {(A, EMPTY): C})
        assert output.tags == (C,)
        assert output.slice_ids is None
        assert sorted(output.indices["t"].tolist()) == [0, 0, 1, 2]

    def test_output_slice_ids_follow_the_left_slice(self, table, probe_table):
        left = sliced_relation("t", table, {A: [0, 1, 2], B: [3, 4, 5, 9]})
        right = TaggedRelation.from_base_table("u", probe_table)
        output = self._join(left, right, {(A, EMPTY): A, (B, EMPTY): B})
        assert output.slice_ids.shape == (output.num_rows,)
        for tag in output.tags:
            rows = output.indices["t"][output.slice_positions(tag)].tolist()
            assert all((row <= 2) == (tag == A) for row in rows)
        assert output.num_rows == 7

    def test_pairs_come_right_major_and_left_ascending(self, table, probe_table):
        left = TaggedRelation.from_base_table("t", table)
        right = TaggedRelation.from_base_table("u", probe_table)
        output = self._join(left, right, {(EMPTY, EMPTY): EMPTY})
        assert output.indices["u"].tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert output.indices["t"].tolist() == [4, 0, 2, 0, 9, 5, 1]

    def test_slices_paired_to_nothing_are_not_hashed(self, table, probe_table):
        left = sliced_relation("t", table, {A: [0, 1], B: [2, 3, 4, 5, 6, 7, 8, 9]})
        right = TaggedRelation.from_base_table("u", probe_table)
        context = ExecContext()
        self._join(left, right, {(A, EMPTY): A}, context)
        assert context.metrics.join_build_rows + context.metrics.join_probe_rows == 2 + 7


class TestProjectionOutput:
    def test_positions_are_ascending_across_slices(self, table):
        relation = sliced_relation("t", table, {A: [0, 3, 6], B: [1, 4, 7], C: [2, 5, 8]})
        positions = TaggedProjectOperator(ProjectionTagSet(allowed={A, C})).execute(
            relation, ExecContext()
        )
        assert positions.tolist() == [0, 2, 3, 5, 6, 8]

    def test_residual_slice_rows_must_pass_the_predicate(self, table):
        relation = sliced_relation("t", table, {A: [0, 3], B: [1, 4, 7]})
        operator = TaggedProjectOperator(
            ProjectionTagSet(allowed={A}, residual={B}), residual_predicate=ABOVE_FOUR
        )
        context = ExecContext()
        assert operator.execute(relation, context).tolist() == [0, 2, 4]
        assert context.metrics.residual_rows_evaluated == 3

    def test_one_allowed_tag_keeps_every_row(self, table):
        relation = TaggedRelation.from_scan("t", table, np.array([9, 4, 2]))
        positions = TaggedProjectOperator(ProjectionTagSet(allowed={EMPTY})).execute(
            relation, ExecContext()
        )
        assert positions.tolist() == [0, 1, 2]
