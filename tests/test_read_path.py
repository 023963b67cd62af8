"""The storage -> expression -> kernel read path copies only what it must.

A contiguous sequential ``Column.read_at`` returns a read-only view of the
column, a NULL-free column returns a fresh all-False mask, a leaf over its
batch's whole selection evaluates against the batch itself, and a comparison
with a literal broadcasts the literal's 0-d array.  Each shortcut must be
indistinguishable from the copying path it replaced: same cells, same truth
values, no caller able to write through to the column.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.expr import three_valued as tv
from repro.expr.ast import (
    BetweenPredicate,
    ColumnRef,
    Comparison,
    InPredicate,
    LikePredicate,
    Literal,
    _compare,
)
from repro.expr.eval import RowBatch
from repro.kernels.dictionary import LeafEvaluator, table_dictionary
from repro.sql import parse_query
from repro.storage.column import SEQUENTIAL_SCAN_THRESHOLD, Column, ColumnType
from repro.storage.iostats import IOStats
from repro.testing.oracle import evaluate_oracle

ROWS = 1000
OPS = ("=", "!=", "<", "<=", ">", ">=")


def _position_shapes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        "whole": np.arange(ROWS),
        "contiguous": np.arange(ROWS // 4, ROWS),
        "every_other_row": np.arange(0, ROWS, 2),
        "shuffled": rng.permutation(ROWS),
        "repeated": np.concatenate([np.arange(ROWS // 2), np.arange(ROWS // 2)]),
        "few": np.array([ROWS - 1, 3, 3]),
        "empty": np.empty(0, dtype=np.int64),
    }


def _columns() -> dict[str, Column]:
    values = np.arange(ROWS, dtype=np.int64) * 7
    return {
        "plain": Column("c", values.copy()),
        "nulls": Column("c", values.copy(), null_mask=np.arange(ROWS) % 5 == 0),
        "strings": Column("c", [f"s{i % 13}" if i % 9 else None for i in range(ROWS)]),
    }


# --------------------------------------------------------------------------- #
# Column.read_at
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["plain", "nulls"])
@pytest.mark.parametrize("stats", [True, False], ids=["accounted", "unaccounted"])
def test_contiguous_sequential_read_is_a_read_only_view(kind, stats):
    column = _columns()[kind]
    before = column.data.copy()
    positions = np.arange(100, ROWS)
    assert positions.size > SEQUENTIAL_SCAN_THRESHOLD * ROWS
    values, _nulls = column.read_at(positions, iostats=IOStats() if stats else None)
    assert np.shares_memory(values, column.data)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = -1
    with pytest.raises(ValueError):
        values.sort()
    assert np.array_equal(column.data, before)


@pytest.mark.parametrize("kind", ["plain", "nulls", "strings"])
def test_every_other_read_gathers_a_fresh_copy(kind):
    column = _columns()[kind]
    for name, positions in _position_shapes().items():
        values, _nulls = column.read_at(positions, iostats=IOStats())
        contiguous = name in ("whole", "contiguous")
        assert np.shares_memory(values, column.data) == contiguous, name
        assert values.flags.writeable != contiguous, name


@pytest.mark.parametrize("kind", ["plain", "nulls", "strings"])
def test_every_null_mask_is_fresh_writable_and_correct(kind):
    column = _columns()[kind]
    before = column.null_mask.copy()
    for name, positions in _position_shapes().items():
        values, nulls = column.read_at(positions, iostats=IOStats())
        assert np.array_equal(values, column.data[positions]), name
        assert np.array_equal(nulls, before[positions]), name
        assert nulls.flags.writeable, name
        assert not np.shares_memory(nulls, column.null_mask), name
        nulls[:] = True
    assert np.array_equal(column.null_mask, before)


def test_has_nulls_is_the_construction_flag():
    columns = _columns()
    assert not columns["plain"].has_nulls()
    assert columns["nulls"].has_nulls()
    assert columns["strings"].has_nulls()
    assert Column("c", [None, None], ctype=ColumnType.INT).has_nulls()
    assert not Column("c", np.zeros(0)).has_nulls()


def test_an_ascending_read_past_the_end_still_raises():
    column = _columns()["plain"]
    positions = np.arange(ROWS // 2, ROWS + 1)
    with pytest.raises(IndexError):
        column.account_read(positions, iostats=IOStats())
    with pytest.raises(IndexError):
        column.read_at(positions)


# --------------------------------------------------------------------------- #
# Whole-selection leaves
# --------------------------------------------------------------------------- #
def _leaf_table() -> Table:
    rng = np.random.default_rng(11)
    labels = np.array(["red", "green", "blue", "grey"], dtype=object)
    return Table(
        "t",
        [
            Column("n", rng.integers(0, 50, ROWS)),
            Column("nn", rng.integers(0, 50, ROWS), null_mask=rng.random(ROWS) < 0.2),
            Column("s", labels[rng.integers(0, 4, ROWS)]),
            Column("sn", [None if i % 6 == 0 else str(labels[i % 4]) for i in range(ROWS)]),
            Column("u", [f"name{i}" for i in range(ROWS)]),
        ],
    )


def _leaves(alias: str) -> list:
    leaves = []
    for column in ("n", "nn"):
        ref = ColumnRef(alias, column)
        leaves += [Comparison(ref, op, Literal(20)) for op in OPS]
        leaves.append(BetweenPredicate(ref, Literal(5), Literal(30)))
        leaves.append(InPredicate(ref, [1, 2, 3.5]))
    for column in ("s", "sn", "u"):
        ref = ColumnRef(alias, column)
        leaves += [Comparison(ref, op, Literal("green")) for op in OPS]
        leaves.append(InPredicate(ref, ["red", "blue"]))
        leaves.append(LikePredicate(ref, "gr%"))
    return leaves


@pytest.mark.parametrize("positions", ["whole", "shuffled", "every_other_row"])
def test_whole_selection_leaf_equals_the_restricted_evaluation(positions):
    table = _leaf_table()
    assert table_dictionary(table, "s") is not None
    assert table_dictionary(table, "sn") is not None
    assert table_dictionary(table, "u") is None
    batch_positions = _position_shapes()[positions]
    for leaf in _leaves("t"):
        batch = RowBatch({"t": table}, {"t": batch_positions}, iostats=IOStats())
        rows = np.arange(batch.num_rows, dtype=np.int64)
        expected = leaf.evaluate(batch.restricted(rows))
        got = LeafEvaluator(batch).truth(leaf, rows)
        assert got.dtype == expected.dtype == np.uint8, leaf.key()
        assert np.array_equal(got, expected), leaf.key()
        # A strict subset still goes through the restricted view.
        subset = rows[::3]
        assert np.array_equal(
            LeafEvaluator(batch).truth(leaf, subset), leaf.evaluate(batch.restricted(subset))
        ), leaf.key()


def test_whole_selection_leaf_reads_each_column_once():
    table = _leaf_table()
    stats = IOStats()
    batch = RowBatch({"t": table}, {"t": np.arange(ROWS)}, iostats=stats)
    leaves = LeafEvaluator(batch)
    rows = np.arange(ROWS, dtype=np.int64)
    for op in OPS:
        leaves.truth(Comparison(ColumnRef("t", "n"), op, Literal(3)), rows)
    assert stats.values_read == ROWS


# --------------------------------------------------------------------------- #
# Scalar literals
# --------------------------------------------------------------------------- #
SCALAR_LITERALS = [
    0, 1, -1, 7, 2**53 + 1, 2**62 + 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
    2**70, -(2**70), 2**70 + 1, 0.5, -5.5, 1.0, float(2**63), float("nan"), float("inf"),
    True, False, "x",
]


def _scalar_columns() -> dict[str, Column]:
    ints = np.array(
        [-(2**63), -(2**62) - 1, -5, -1, 0, 1, 5, 7, 2**53 + 1, 2**62 + 1, 2**63 - 1], np.int64
    )
    floats = np.array(
        [np.nan, -np.inf, -1e300, -(2.0**70), -5.5, -1.0, 0.0, 0.5, 1.0, 2.0**53, 2.0**63,
         2.0**70, np.inf]
    )
    return {
        "int64": Column("c", ints, null_mask=np.arange(ints.size) % 4 == 1),
        "float64": Column("c", floats, null_mask=np.arange(floats.size) % 4 == 1),
        "bool": Column("c", np.array([True, False, True, False]), null_mask=[0, 0, 1, 0]),
    }


def _outcome(compute):
    """The truth array ``compute`` returns, or the type of the error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return compute()
        except Exception as error:  # the two paths must fail alike
            return type(error)


def _filled(value, size: int) -> np.ndarray:
    """The copying path's literal: ``value`` filled to full width."""
    return np.full(size, value, dtype=object if isinstance(value, str) else None)


def _full_width_truth(op, values, nulls, value) -> np.ndarray:
    """The copying path: the literal filled to full width, with its zero mask."""
    mask = _compare(op, values, _filled(value, values.size))
    return tv.from_bool_array(mask, nulls | np.zeros(values.size, dtype=np.bool_))


def _full_width_between(values, nulls, low, high) -> np.ndarray:
    mask = (values >= _filled(low, values.size)) & (values <= _filled(high, values.size))
    return tv.from_bool_array(mask, nulls | np.zeros(values.size, dtype=np.bool_))


def _assert_same_outcome(got, expected, context) -> None:
    if isinstance(expected, type):
        assert got is expected, context
    else:
        assert np.array_equal(got, expected), context


@pytest.mark.parametrize("kind", ["int64", "float64", "bool"])
def test_scalar_comparison_equals_the_full_width_path(kind):
    table = Table("t", [_scalar_columns()[kind]])
    batch = RowBatch.for_base_table("t", table)
    values, nulls = table.column("c").read_at(np.arange(table.num_rows))
    for value in SCALAR_LITERALS:
        for op in OPS:
            expected = _outcome(lambda: _full_width_truth(op, values, nulls, value))
            got = _outcome(
                lambda: Comparison(ColumnRef("t", "c"), op, Literal(value)).evaluate(batch)
            )
            _assert_same_outcome(got, expected, (kind, value, op))
        for low, high in ((value, 2**70), (-(2**70), value), (value, value)):
            between = BetweenPredicate(ColumnRef("t", "c"), Literal(low), Literal(high))
            expected = _outcome(lambda: _full_width_between(values, nulls, low, high))
            got = _outcome(lambda: between.evaluate(batch))
            _assert_same_outcome(got, expected, (kind, low, high))


def test_literal_scalar_has_the_dtype_evaluate_fills_with():
    batch = RowBatch({}, {})
    for value in SCALAR_LITERALS:
        filled, nulls = Literal(value).evaluate(batch)
        assert Literal(value).scalar().dtype == filled.dtype, value
        assert Literal(value).scalar().ndim == 0
        assert nulls.size == 0


# --------------------------------------------------------------------------- #
# Whole contiguous reads feeding output shaping
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def shaping_catalog() -> Catalog:
    rng = np.random.default_rng(29)
    rows = 4000
    table = Table(
        "t",
        [
            Column("c", rng.integers(-500, 500, rows)),
            Column("f", rng.random(rows)),
            Column("g", rng.integers(0, 9, rows)),
            Column("v", rng.integers(0, 100, rows), null_mask=rng.random(rows) < 0.1),
        ],
    )
    return Catalog([table])


def _oracle_rows(catalog: Catalog, columns: str) -> list[tuple]:
    return evaluate_oracle(catalog, parse_query(f"SELECT {columns} FROM t AS t"))


@pytest.mark.parametrize("shards", [1, 2])
def test_order_by_over_a_whole_contiguous_read_matches_the_oracle(shaping_catalog, shards):
    session = Session(shaping_catalog)
    for column in ("c", "f"):
        rows = _oracle_rows(shaping_catalog, f"t.{column}")
        for direction, reverse in (("", False), (" DESC", True)):
            sql = f"SELECT t.{column} FROM t AS t ORDER BY t.{column}{direction}"
            result = session.execute(sql, partitions=2, shards=shards)
            assert result.rows == sorted(rows, reverse=reverse), sql


@pytest.mark.parametrize("shards", [1, 2])
def test_group_by_over_a_whole_contiguous_read_matches_the_oracle(shaping_catalog, shards):
    session = Session(shaping_catalog)
    rows = _oracle_rows(shaping_catalog, "t.g, t.v")
    counts = Counter(g for g, _v in rows)
    sums = {g: sum(v for key, v in rows if key == g and v is not None) for g in counts}
    expected = sorted((g, counts[g], sums[g]) for g in counts)
    sql = "SELECT t.g, COUNT(*), SUM(t.v) FROM t AS t GROUP BY t.g"
    result = session.execute(sql, partitions=2, shards=shards)
    assert sorted(result.rows) == expected
    ordered = session.execute(f"{sql} ORDER BY t.g", partitions=2, shards=shards)
    assert ordered.rows == expected
