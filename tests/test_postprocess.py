"""Tests for output shaping: aggregation, DISTINCT, ORDER BY, LIMIT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import AggregateFunction, AggregateSpec, OrderItem
from repro.engine.postprocess import (
    OutputShapingError,
    _count_distinct,
    _group_codes,
    aggregate,
    apply_output_shaping,
    distinct,
    limit,
    order_by,
)
from repro.engine.result import OutputColumns
from repro.expr.builders import col
from repro.plan.query import Query


def _output(names: list[str], columns: list[list]) -> OutputColumns:
    """Helper building OutputColumns from Python value lists (None = NULL)."""
    built = []
    for values in columns:
        nulls = np.array([value is None for value in values], dtype=np.bool_)
        cleaned = [0 if value is None else value for value in values]
        if any(isinstance(value, str) for value in values if value is not None):
            cleaned = ["" if value is None else value for value in values]
            data = np.array(cleaned, dtype=object)
        else:
            data = np.array(cleaned)
        built.append((data, nulls))
    row_count = len(columns[0]) if columns else 0
    return OutputColumns(names=names, columns=built, row_count=row_count)


class TestAggregate:
    def test_count_star_without_group_by(self):
        output = _output(["t.x"], [[1, 2, 3, 4]])
        spec = AggregateSpec(AggregateFunction.COUNT)
        result = aggregate(output, [], [spec])
        assert result.names == ["COUNT(*)"]
        assert result.row_count == 1
        assert result.columns[0][0][0] == 4

    def test_count_star_on_empty_input_returns_zero_row(self):
        output = _output(["t.x"], [[]])
        result = aggregate(output, [], [AggregateSpec(AggregateFunction.COUNT)])
        assert result.row_count == 1
        assert result.columns[0][0][0] == 0

    def test_count_column_skips_nulls(self):
        output = _output(["t.x"], [[1, None, 3, None]])
        spec = AggregateSpec(AggregateFunction.COUNT, col("t", "x"))
        result = aggregate(output, [], [spec])
        assert result.columns[0][0][0] == 2

    def test_count_distinct(self):
        output = _output(["t.x"], [[1, 1, 2, None, 2]])
        spec = AggregateSpec(AggregateFunction.COUNT, col("t", "x"), distinct=True)
        result = aggregate(output, [], [spec])
        assert result.names == ["COUNT(DISTINCT t.x)"]
        assert result.columns[0][0][0] == 2

    def test_sum_avg_min_max(self):
        output = _output(["t.x"], [[1.0, 2.0, 3.0, None]])
        specs = [
            AggregateSpec(AggregateFunction.SUM, col("t", "x")),
            AggregateSpec(AggregateFunction.AVG, col("t", "x")),
            AggregateSpec(AggregateFunction.MIN, col("t", "x")),
            AggregateSpec(AggregateFunction.MAX, col("t", "x")),
        ]
        result = aggregate(output, [], specs)
        values = [column[0][0] for column in result.columns]
        assert values == [6.0, 2.0, 1.0, 3.0]

    def test_sum_of_all_nulls_is_null(self):
        output = _output(["t.x"], [[None, None]])
        result = aggregate(output, [], [AggregateSpec(AggregateFunction.SUM, col("t", "x"))])
        assert bool(result.columns[0][1][0]) is True  # null flag set

    def test_group_by_groups_and_preserves_first_seen_order(self):
        output = _output(
            ["t.category", "t.x"],
            [["b", "a", "b", "a", "c"], [1, 2, 3, 4, 5]],
        )
        result = aggregate(
            output,
            [col("t", "category")],
            [
                AggregateSpec(AggregateFunction.COUNT),
                AggregateSpec(AggregateFunction.SUM, col("t", "x")),
            ],
        )
        assert result.names == ["t.category", "COUNT(*)", "SUM(t.x)"]
        categories = list(result.columns[0][0])
        counts = list(result.columns[1][0])
        sums = list(result.columns[2][0])
        assert categories == ["b", "a", "c"]
        assert counts == [2, 2, 1]
        assert sums == [4, 6, 5]

    def test_group_by_null_key_forms_its_own_group(self):
        output = _output(["t.k", "t.x"], [[None, "a", None], [1, 2, 3]])
        result = aggregate(
            output, [col("t", "k")], [AggregateSpec(AggregateFunction.COUNT)]
        )
        assert result.row_count == 2

    def test_min_max_on_strings(self):
        output = _output(["t.s"], [["pear", "apple", "fig"]])
        result = aggregate(
            output,
            [],
            [
                AggregateSpec(AggregateFunction.MIN, col("t", "s")),
                AggregateSpec(AggregateFunction.MAX, col("t", "s")),
            ],
        )
        assert result.columns[0][0][0] == "apple"
        assert result.columns[1][0][0] == "pear"

    def test_unknown_column_raises(self):
        output = _output(["t.x"], [[1]])
        with pytest.raises(OutputShapingError, match="not found"):
            aggregate(output, [col("t", "missing")], [AggregateSpec(AggregateFunction.COUNT)])

    def test_aggregate_spec_validation(self):
        with pytest.raises(ValueError):
            AggregateSpec(AggregateFunction.SUM)
        with pytest.raises(ValueError):
            AggregateSpec(AggregateFunction.MIN, col("t", "x"), distinct=True)


class TestDistinctOrderLimit:
    def test_distinct_keeps_first_occurrence(self):
        output = _output(["t.x", "t.y"], [[1, 1, 2, 1], ["a", "a", "b", "a"]])
        result = distinct(output)
        assert result.row_count == 2

    def test_distinct_treats_nulls_as_equal(self):
        output = _output(["t.x"], [[None, None, 1]])
        result = distinct(output)
        assert result.row_count == 2

    def test_order_by_ascending_and_descending(self):
        output = _output(["t.x"], [[3, 1, 2]])
        ascending = order_by(output, [OrderItem("t.x")])
        descending = order_by(output, [OrderItem("t.x", descending=True)])
        assert list(ascending.columns[0][0]) == [1, 2, 3]
        assert list(descending.columns[0][0]) == [3, 2, 1]

    def test_order_by_nulls_always_last(self):
        output = _output(["t.x"], [[3, None, 1]])
        ascending = order_by(output, [OrderItem("t.x")])
        descending = order_by(output, [OrderItem("t.x", descending=True)])
        assert bool(ascending.columns[0][1][-1]) is True
        assert bool(descending.columns[0][1][-1]) is True

    def test_order_by_multiple_keys(self):
        output = _output(
            ["t.a", "t.b"],
            [[1, 2, 1, 2], ["x", "y", "y", "x"]],
        )
        result = order_by(
            output, [OrderItem("t.a"), OrderItem("t.b", descending=True)]
        )
        rows = list(zip(result.columns[0][0].tolist(), result.columns[1][0].tolist()))
        assert rows == [(1, "y"), (1, "x"), (2, "y"), (2, "x")]

    def test_order_by_unknown_column_raises(self):
        output = _output(["t.x"], [[1]])
        with pytest.raises(OutputShapingError):
            order_by(output, [OrderItem("t.missing")])

    def test_limit_truncates(self):
        output = _output(["t.x"], [[1, 2, 3]])
        assert limit(output, 2).row_count == 2
        assert limit(output, 0).row_count == 0
        assert limit(output, 10).row_count == 3

    def test_limit_negative_raises(self):
        output = _output(["t.x"], [[1]])
        with pytest.raises(OutputShapingError):
            limit(output, -1)


class TestApplyOutputShaping:
    def test_full_pipeline(self):
        output = _output(
            ["t.category", "t.x"],
            [["a", "b", "a", "b", "c"], [1, 5, 3, 1, 9]],
        )
        query = Query(
            tables={"t": "t"},
            select=[col("t", "category")],
            aggregates=[AggregateSpec(AggregateFunction.SUM, col("t", "x"))],
            group_by=[col("t", "category")],
            order_by=[OrderItem("SUM(t.x)", descending=True)],
            limit=2,
        )
        result = apply_output_shaping(output, query)
        assert result.names == ["t.category", "SUM(t.x)"]
        assert result.row_count == 2
        assert list(result.columns[0][0]) == ["c", "b"]
        assert list(result.columns[1][0]) == [9, 6]

    def test_plain_distinct_order_limit(self):
        output = _output(["t.x"], [[2, 2, 3, 1, 3]])
        query = Query(
            tables={"t": "t"},
            select=[col("t", "x")],
            distinct=True,
            order_by=[OrderItem("t.x")],
            limit=2,
        )
        result = apply_output_shaping(output, query)
        assert list(result.columns[0][0]) == [1, 2]


class TestQueryValidation:
    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(ValueError, match="GROUP BY"):
            Query(tables={"t": "t"}, group_by=[col("t", "x")])

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="LIMIT"):
            Query(tables={"t": "t"}, limit=-1)

    def test_group_by_unknown_alias_rejected(self):
        with pytest.raises(ValueError, match="unknown alias"):
            Query(
                tables={"t": "t"},
                aggregates=[AggregateSpec(AggregateFunction.COUNT)],
                group_by=[col("z", "x")],
            )

    def test_aggregate_unknown_alias_rejected(self):
        with pytest.raises(ValueError, match="unknown alias"):
            Query(
                tables={"t": "t"},
                aggregates=[AggregateSpec(AggregateFunction.SUM, col("z", "x"))],
            )

    def test_output_names(self):
        query = Query(
            tables={"t": "t"},
            aggregates=[
                AggregateSpec(AggregateFunction.COUNT),
                AggregateSpec(AggregateFunction.MIN, col("t", "x")),
            ],
            group_by=[col("t", "category")],
        )
        assert query.output_names() == ["t.category", "COUNT(*)", "MIN(t.x)"]
        assert query.has_output_shaping


# --------------------------------------------------------------------------- #
# Folded int64 keys vs the row-matrix formulation they replaced
# --------------------------------------------------------------------------- #
def _matrix_group_codes(code_columns):
    """``np.unique(matrix, axis=0)`` grouping, as it was before the key fold."""
    matrix = np.stack(code_columns, axis=1)
    _uniques, first_rows, inverse = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first_rows, kind="stable")
    remap = np.empty(order.size, dtype=np.int64)
    remap[order] = np.arange(order.size, dtype=np.int64)
    return remap[inverse.reshape(-1)], first_rows[order]


def _spread(codes, scale):
    """Positive codes multiplied out (a sparse, huge code space); -1 and 0 stay."""
    return np.where(codes > 0, codes * scale, codes)


@st.composite
def _code_columns(draw):
    """1-5 int64 code columns (values >= -1) of one length; some sparse and huge."""
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        codes = np.array(draw(st.lists(st.integers(-1, 4), min_size=rows, max_size=rows)), np.int64)
        scale = draw(st.sampled_from([1, 1, 1 << 20, 1 << 40]))
        columns.append(_spread(codes, scale))
    return columns


class TestFoldedKeys:
    @settings(max_examples=300, deadline=None)
    @given(_code_columns())
    @example([_spread(np.array([4, -1, 4, 0, -1]), 1 << shift) for shift in (0, 14, 14, 14, 14)])
    def test_group_codes_and_distinct_match_the_row_matrix(self, columns):
        groups, representatives = _group_codes(columns, columns[0].size)
        expected_groups, expected_representatives = _matrix_group_codes(columns)
        assert np.array_equal(groups, expected_groups)
        assert np.array_equal(representatives, expected_representatives)

        output = OutputColumns(
            names=[f"c{i}" for i in range(len(columns))],
            columns=[(codes, codes == -1) for codes in columns],
            row_count=int(columns[0].size),
        )
        kept = distinct(output)
        assert kept.row_count == expected_representatives.size
        for (values, nulls), codes in zip(kept.columns, columns):
            assert np.array_equal(values, codes[expected_representatives])
            assert np.array_equal(nulls, codes[expected_representatives] == -1)

    def test_code_space_product_past_int64_is_recompressed(self):
        rng = np.random.default_rng(2)
        columns = [_spread(rng.integers(-1, 3, 200), 1 << 15) for _ in range(5)]
        assert np.prod([float(c.max() + 2) for c in columns]) > 2.0**62
        for actual, expected in zip(
            _group_codes(columns, 200), _matrix_group_codes(columns)
        ):
            assert np.array_equal(actual, expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 5)), max_size=40))
    def test_count_distinct_matches_python_sets(self, pairs):
        groups = np.array([g for g, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.int64)
        counts = _count_distinct(groups, values, values >= 0, 4)
        expected = [len({v for g, v in pairs if g == group and v >= 0}) for group in range(4)]
        assert counts.tolist() == expected
