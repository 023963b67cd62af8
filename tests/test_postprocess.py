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
    _factorize,
    _group_codes,
    _group_sums,
    aggregate,
    apply_output_shaping,
    distinct,
    limit,
    limit_candidates,
    order_by,
)
from repro.engine.partial_agg import combine_partial_aggregates, partial_aggregate
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


# --------------------------------------------------------------------------- #
# Linear-time shaping vs a row-at-a-time reference and the np.unique kernels
# --------------------------------------------------------------------------- #
_SUM_LIKE = (AggregateFunction.SUM, AggregateFunction.AVG)
_DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_, "string": object}
_NAN = float("nan")


def _typed_output(table: dict) -> OutputColumns:
    """OutputColumns from ``{name: (kind, [value | None, ...])}``."""
    built = []
    for kind, cells in table.values():
        filler = "" if kind == "string" else 0
        data = np.array([filler if cell is None else cell for cell in cells], dtype=_DTYPES[kind])
        built.append((data, np.array([cell is None for cell in cells], dtype=np.bool_)))
    return OutputColumns(names=list(table), columns=built, row_count=len(built[0][0]))


def _cells(output: OutputColumns) -> list[list]:
    """Column-major Python cells, None = NULL."""
    return [
        [None if null else cell for cell, null in zip(values.tolist(), nulls.tolist())]
        for values, nulls in output.columns
    ]


def _canon(cell):
    """Equality/sort key of a non-NULL cell: NaNs equal and last, -0.0 == 0.0."""
    if isinstance(cell, float):
        return (1, 0.0) if cell != cell else (0, cell + 0.0)
    return (0, cell)


def _assert_cells_equal(actual: list[list], expected: list[list]) -> None:
    assert len(actual) == len(expected)
    for got_column, want_column in zip(actual, expected):
        assert len(got_column) == len(want_column)
        for got, want in zip(got_column, want_column):
            if want is None:
                assert got is None
            else:
                assert type(got) is type(want) and _canon(got) == _canon(want), (got, want)


def _assert_same_output(actual: OutputColumns, expected: OutputColumns) -> None:
    """Byte-identity: names, row count, dtypes, values, cell types, masks."""
    assert actual.names == expected.names
    assert actual.row_count == expected.row_count
    for (got, got_nulls), (want, want_nulls) in zip(actual.columns, expected.columns):
        assert got.dtype == want.dtype
        assert np.array_equal(got_nulls, want_nulls)
        if got.dtype == object:
            assert [type(cell) for cell in got] == [type(cell) for cell in want]
            assert got.tolist() == want.tolist()
        else:
            assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


# -- the parent's np.unique-based kernels, transcribed ----------------------- #
def _unique_factorize(values, nulls):
    codes = np.full(values.shape[0], -1, dtype=np.int64)
    mask = ~nulls
    if mask.any():
        uniques, inverse = np.unique(values[mask], return_inverse=True)
        codes[mask] = inverse.astype(np.int64, copy=False)
    else:
        uniques = values[:0]
    return codes, uniques


def _unique_group_codes(code_columns, num_rows):
    if not code_columns:
        return np.zeros(num_rows, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return _matrix_group_codes(code_columns)


def _object_group_sums(codes, values, mask, num_groups):
    is_float = np.issubdtype(values.dtype, np.floating)
    accumulator = np.zeros(num_groups, dtype=np.float64 if is_float else object)
    if mask.any():
        addends = values[mask]
        if not is_float:
            addends = np.array(addends.tolist(), dtype=object)
        np.add.at(accumulator, codes[mask], addends)
    return accumulator


def _full_sort_order_by(output, items):
    if output.row_count == 0 or not items:
        return output
    keys = []
    for item in items:
        values, nulls = output.columns[output.names.index(item.key)]
        codes, uniques = _unique_factorize(values, nulls)
        ranks = codes.copy()
        if item.descending:
            ranks[codes >= 0] = (uniques.size - 1) - codes[codes >= 0]
        ranks[codes < 0] = uniques.size
        keys.append(ranks)
    positions = np.lexsort(tuple(reversed(keys))).astype(np.int64, copy=False)
    return OutputColumns(
        names=list(output.names),
        columns=[(values[positions], nulls[positions]) for values, nulls in output.columns],
        row_count=output.row_count,
    )


# -- the row-at-a-time reference --------------------------------------------- #
def _row_key(columns: list[list], row: int) -> tuple:
    return tuple(None if column[row] is None else _canon(column[row]) for column in columns)


def _reference_aggregate(columns, key_positions, argument, specs):
    """Dict grouping in first-seen order; one result column per key and spec."""
    rows = len(columns[0])
    groups: dict[tuple, list[int]] = {}
    for row in range(rows):
        groups.setdefault(_row_key([columns[p] for p in key_positions], row), []).append(row)
    if not key_positions and not groups:
        groups[()] = []
    result = [[columns[p][members[0]] for members in groups.values()] for p in key_positions]
    for spec in specs:
        column = []
        for members in groups.values():
            if spec.argument is None:
                column.append(len(members))
                continue
            present = [cell for cell in map(columns[argument].__getitem__, members) if cell is not None]
            if spec.function is AggregateFunction.COUNT:
                distinct_cells = {_canon(cell) for cell in present}
                column.append(len(distinct_cells) if spec.distinct else len(present))
            elif not present:
                column.append(None)
            elif spec.function in _SUM_LIKE:
                total = 0.0 if isinstance(present[0], float) else 0
                for cell in present:
                    total = total + cell
                is_sum = spec.function is AggregateFunction.SUM
                column.append(total if is_sum else float(total) / len(present))
            else:
                ordered = sorted(present, key=_canon)
                column.append(ordered[-1 if spec.function is AggregateFunction.MAX else 0])
        result.append(column)
    return result


def _reference_order(columns, items: list[tuple[int, bool]], rows: list[int]) -> list[int]:
    """Stable sorts from the last key to the first; NULLS LAST either way."""
    for position, descending in reversed(items):
        column = columns[position]
        present = [row for row in rows if column[row] is not None]
        present.sort(key=lambda row: _canon(column[row]), reverse=descending)
        rows = present + [row for row in rows if column[row] is None]
    return rows


# -- strategies -------------------------------------------------------------- #
_CELLS = {
    "int": st.integers(-3, 4),  # span <= 8 x rows: the offset path
    "wide": st.sampled_from([-(10**9), -7, 0, 3, 10**9]),  # span > 8 x rows: the sort path
    "huge": st.sampled_from([2**62, 2**62 - 1, -(2**62), -(2**62) + 1, 1, 0]),
    "float": st.sampled_from([0.0, -0.0, 1.5, -2.25, 0.1, 0.2, 0.3, _NAN]),
    "bool": st.booleans(),
    "string": st.sampled_from(["", "a", "ab", "b", "z"]),
}


@st.composite
def _tables(draw, max_rows=24):
    """Three columns of one length, each of a random kind, ~1/4 NULL cells."""
    rows = draw(st.integers(0, max_rows))
    table = {}
    for name in ("t.a", "t.b", "t.c"):
        kind = draw(st.sampled_from(sorted(_CELLS)))
        cell = st.one_of(st.none(), _CELLS[kind], _CELLS[kind], _CELLS[kind])
        cells = draw(st.lists(cell, min_size=rows, max_size=rows))
        table[name] = ("int" if kind in ("wide", "huge") else kind, cells)
    return table


def _specs_for(kind: str) -> list[AggregateSpec]:
    argument = col("t", "c")
    functions = [AggregateFunction.COUNT, AggregateFunction.MIN, AggregateFunction.MAX]
    if kind != "string":
        functions += _SUM_LIKE
    return [
        AggregateSpec(AggregateFunction.COUNT),
        AggregateSpec(AggregateFunction.COUNT, argument, distinct=True),
        *(AggregateSpec(function, argument) for function in functions),
    ]


def _select_query(order_items, count) -> Query:
    return Query(
        tables={"t": "t"},
        select=[col("t", "a"), col("t", "b"), col("t", "c")],
        order_by=[
            OrderItem(f"t.{'ab'[position]}", descending) for position, descending in order_items
        ],
        limit=count,
    )


_ORDER_ITEMS = st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=2)


def _int_table(a, b=None, c=None) -> dict:
    rows = len(a)
    return {
        "t.a": ("int", a),
        "t.b": ("int", b if b is not None else [0] * rows),
        "t.c": ("int", c if c is not None else [0] * rows),
    }


class TestShapingMatchesReferences:
    @settings(max_examples=300, deadline=None)
    @given(_tables(), st.integers(0, 2))
    # max|v| x rows >= 2**63: arbitrary-precision path, a sum beyond int64
    @example(_int_table([1, 1, 1, 2], c=[2**62, 2**62, 2**62, -(2**62)]), 1)
    # a bool SUM: Python ints, not bools
    @example({**_int_table([0, 0, 1]), "t.c": ("bool", [True, True, None])}, 1)
    def test_aggregate(self, table, num_keys):
        output, columns = _typed_output(table), [cells for _kind, cells in table.values()]
        group_by = [col("t", "a"), col("t", "b")][:num_keys]
        specs = _specs_for(table["t.c"][0])

        result = aggregate(output, group_by, specs)
        expected = _reference_aggregate(columns, list(range(num_keys)), 2, specs)
        assert result.names == [c.key() for c in group_by] + [spec.label() for spec in specs]
        _assert_cells_equal(_cells(result), expected)

        # Kernel by kernel against the np.unique formulation, dtypes included.
        code_columns = []
        for values, nulls in output.columns:
            codes, uniques = _factorize(values, nulls)
            want_codes, want_uniques = _unique_factorize(values, nulls)
            assert np.array_equal(codes, want_codes)
            assert uniques.dtype == want_uniques.dtype
            assert np.array_equal(uniques, want_uniques, equal_nan=uniques.dtype.kind == "f")
            code_columns.append(codes)
        groups, representatives = _group_codes(code_columns[:num_keys], output.row_count)
        want_groups, want_representatives = _unique_group_codes(
            code_columns[:num_keys], output.row_count
        )
        assert np.array_equal(groups, want_groups)
        assert np.array_equal(representatives, want_representatives)
        values, nulls = output.columns[2]
        if values.dtype != object:
            num_groups = int(representatives.size)
            sums = _group_sums(groups, values, ~nulls, num_groups)
            want_sums = _object_group_sums(groups, values, ~nulls, num_groups)
            assert sums.dtype == want_sums.dtype
            if sums.dtype == object:
                assert all(type(cell) is int for cell in sums)
                assert sums.tolist() == want_sums.tolist()
            else:
                assert np.array_equal(sums, want_sums, equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(_tables(), _ORDER_ITEMS, st.one_of(st.none(), st.integers(0, 30)), st.booleans())
    # ties straddling the k-th value
    @example(_int_table([3, 1, 2, 2, 2, 5]), [(0, False)], 3, False)
    # DESC with fewer non-NULL keys than k
    @example(_int_table([1, None, None, 2]), [(0, True)], 3, False)
    # all-NULL key
    @example(_int_table([None, None, None], b=[2, 1, 3]), [(0, False), (1, False)], 2, False)
    # a boundary tie decided by the secondary key
    @example(_int_table([1, 2, 2, 2], b=[0, 3, 1, 2]), [(0, False), (1, True)], 2, False)
    # non-NULL NaN in the primary key: the pre-filter stands aside
    @example(
        {**_int_table([0] * 4), "t.a": ("float", [_NAN, 0.0, -0.0, 1.5])},
        [(0, True)],
        2,
        False,
    )
    def test_distinct_order_limit(self, table, order_items, count, use_distinct):
        output, columns = _typed_output(table), [cells for _kind, cells in table.values()]
        query = _select_query(order_items, count)
        query.distinct = use_distinct

        rows = list(range(output.row_count))
        if use_distinct:
            seen, kept = set(), []
            for row in rows:
                key = _row_key(columns, row)
                if key not in seen:
                    seen.add(key)
                    kept.append(row)
            rows = kept
            _assert_cells_equal(
                _cells(distinct(output)), [[column[row] for row in rows] for column in columns]
            )
        rows = _reference_order(columns, order_items, rows)
        if count is not None:
            rows = rows[:count]
        expected = [[column[row] for row in rows] for column in columns]

        shaped = apply_output_shaping(output, query)
        _assert_cells_equal(_cells(shaped), expected)

        # ... and byte-identical to sorting every row, then cutting.
        full = distinct(output) if use_distinct else output
        full = _full_sort_order_by(full, query.order_by)
        if count is not None:
            full = limit(full, count)
        _assert_same_output(shaped, full)
        _assert_same_output(
            order_by(output, query.order_by), _full_sort_order_by(output, query.order_by)
        )


# --------------------------------------------------------------------------- #
# Split invariance: what shard workers return folds back to the serial answer
# --------------------------------------------------------------------------- #
def _blocks(output: OutputColumns, cuts: list[int]) -> list[OutputColumns]:
    """``output`` cut into contiguous blocks at ``cuts`` (clipped to its rows)."""
    edges = [0, *sorted(min(cut, output.row_count) for cut in cuts), output.row_count]
    return [
        OutputColumns(
            names=list(output.names),
            columns=[(values[start:stop], nulls[start:stop]) for values, nulls in output.columns],
            row_count=stop - start,
        )
        for start, stop in zip(edges, edges[1:])
    ]


_CUTS = st.lists(st.integers(0, 24), max_size=3)


class TestSplitInvariance:
    @settings(max_examples=200, deadline=None)
    @given(_tables(), st.integers(0, 2), _CUTS)
    def test_combined_partial_aggregates_equal_the_whole(self, table, num_keys, cuts):
        kind = table["t.c"][0]
        # Only exactly mergeable aggregates are ever pushed to shards.
        specs = [
            spec
            for spec in _specs_for(kind)
            if not spec.distinct
            and (kind != "float" or spec.function not in _SUM_LIKE)
        ]
        group_by = [col("t", "a"), col("t", "b")][:num_keys]
        query = Query(tables={"t": "t"}, select=list(group_by), aggregates=specs, group_by=group_by)
        output = _typed_output(table)
        partials = [partial_aggregate(block, query) for block in _blocks(output, cuts)]
        combined = combine_partial_aggregates(partials, query)
        whole = aggregate(output, group_by, specs)
        assert combined.names == whole.names
        _assert_cells_equal(_cells(combined), _cells(whole))

    @settings(max_examples=200, deadline=None)
    @given(_tables(), _ORDER_ITEMS, st.integers(0, 30), _CUTS)
    @example(_int_table([2, 1, 2, 1, 2, 1], b=[0, 1, 2, 3, 4, 5]), [(0, False), (1, True)], 2, [3])
    def test_shaping_merged_block_candidates_equals_shaping_the_whole(
        self, table, order_items, count, cuts
    ):
        query = _select_query(order_items, count)
        output = _typed_output(table)
        candidates = [limit_candidates(block, query) for block in _blocks(output, cuts)]
        assert all(c.row_count <= b.row_count for c, b in zip(candidates, _blocks(output, cuts)))
        _assert_same_output(
            apply_output_shaping(OutputColumns.merge(candidates), query),
            apply_output_shaping(output, query),
        )
        # A bare LIMIT is the degenerate case: each block's first `count` rows.
        bare = _select_query([], count)
        prefixes = [limit_candidates(block, bare) for block in _blocks(output, cuts)]
        _assert_same_output(
            apply_output_shaping(OutputColumns.merge(prefixes), bare),
            apply_output_shaping(output, bare),
        )


# --------------------------------------------------------------------------- #
# The linear-time gate: a call count, not a clock
# --------------------------------------------------------------------------- #
class _Spied(np.ndarray):
    """Column data whose sorts and Python-object conversions report their size.

    Arrays derived from it (masked copies, comparisons) stay ``_Spied``.
    """

    seen: list = []

    def argsort(self, *args, **kwargs):
        _Spied.seen.append(("ndarray.argsort", self.size))
        return super().argsort(*args, **kwargs)

    def sort(self, *args, **kwargs):
        _Spied.seen.append(("ndarray.sort", self.size))
        return super().sort(*args, **kwargs)

    def tolist(self):
        _Spied.seen.append(("object cells", self.size))
        return super().tolist()

    def astype(self, dtype, *args, **kwargs):
        if np.dtype(dtype) == object:
            _Spied.seen.append(("object cells", self.size))
        return super().astype(dtype, *args, **kwargs)


def test_shaping_a_large_output_neither_sorts_it_nor_boxes_it(monkeypatch):
    """GROUP BY a 64-value int key and ORDER BY float LIMIT 100 stay linear:
    no sort primitive sees more than 10 % of a 50 000-row input and the
    integer SUM never builds an input-length array of Python objects."""
    rows = 50_000
    rng = np.random.default_rng(11)
    no_nulls = np.zeros(rows, dtype=np.bool_)
    data = {
        "f.g": rng.integers(0, 64, rows),
        "f.v": rng.integers(0, 1000, rows),
        "f.a": rng.random(rows),
    }
    output = OutputColumns(
        names=list(data),
        columns=[(values.view(_Spied), no_nulls.view(_Spied)) for values in data.values()],
        row_count=rows,
    )

    _Spied.seen = seen = []
    for name in ("unique", "lexsort", "argsort", "sort"):
        original = getattr(np, name)

        def spy(first, *args, _name=name, _original=original, **kwargs):
            arrays = first if _name == "lexsort" else [first]
            seen.extend((f"np.{_name}", np.size(array)) for array in arrays)
            return _original(first, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)

    grouped = aggregate(
        output,
        [col("f", "g")],
        [
            AggregateSpec(AggregateFunction.COUNT),
            AggregateSpec(AggregateFunction.SUM, col("f", "v")),
        ],
    )
    top = apply_output_shaping(
        output,
        Query(
            tables={"f": "fact"},
            select=[col("f", "g"), col("f", "v"), col("f", "a")],
            order_by=[OrderItem("f.a")],
            limit=100,
        ),
    )
    monkeypatch.undo()

    assert [entry for entry in seen if entry[1] > rows // 10] == []
    first_rows = np.array([np.flatnonzero(data["f.g"] == g)[0] for g in range(64)])
    keys = np.argsort(first_rows)  # first-seen group order
    assert grouped.columns[0][0].tolist() == keys.tolist()
    assert grouped.columns[1][0].tolist() == np.bincount(data["f.g"])[keys].tolist()
    expected_sums = [int(data["f.v"][data["f.g"] == g].sum()) for g in keys]
    assert grouped.columns[2][0].tolist() == expected_sums
    assert all(type(cell) is int for cell in grouped.columns[2][0])
    assert top.columns[2][0].tolist() == np.sort(data["f.a"])[:100].tolist()
