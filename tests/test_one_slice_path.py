"""The tagged filter's and join's one-slice path against their general path.

A relation with one slice takes the one-slice path (a compacting filter, a
single hash join); the same rows split into two slices whose tag-map entries
route to one output tag take the general path.  Both must yield the same live
tuples in the same order and the same work counters.  The bypass join, which
runs the one-slice join's kernel once per stream pair, is one more input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bypass.operators import BypassJoinOperator
from repro.bypass.streams import StreamSet
from repro.core.operators import TaggedFilterOperator, TaggedJoinOperator
from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import FilterEntry, FilterTagMap, JoinTagMap
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.expr.builders import col, lit, or_
from repro.expr.three_valued import TRUE
from repro.plan.query import JoinCondition
from repro.storage.bitmap import Bitmap
from repro.storage.table import Table

ONE = Tag({"(one)": TRUE})
FIRST = Tag({"(first)": TRUE})
SECOND = Tag({"(second)": TRUE})
OUT = Tag({"(out)": TRUE})

LEFT_ROWS, RIGHT_ROWS = 60, 45

FILTER_COUNTERS = ("predicate_evaluations", "predicate_rows_evaluated", "slices_created")
JOIN_COUNTERS = (
    "join_output_rows",
    "hash_tables_built",
    "join_build_rows",
    "join_probe_rows",
    "tuples_materialized",
    "slices_created",
)
#: A bypass join counts the streams it creates, not slices.
BYPASS_JOIN_COUNTERS = JOIN_COUNTERS[:-1]


def _nullable(rng: np.random.Generator, values: np.ndarray, null_rate: float) -> list:
    return [None if rng.random() < null_rate else value.item() for value in values]


@pytest.fixture(scope="module")
def tables() -> tuple[Table, Table]:
    rng = np.random.default_rng(20240627)
    left = Table.from_dict(
        "l",
        {
            "k": _nullable(rng, rng.integers(0, 12, LEFT_ROWS), 0.15),
            "v": _nullable(rng, rng.random(LEFT_ROWS), 0.2),
        },
    )
    right = Table.from_dict(
        "r",
        {
            "fk": _nullable(rng, rng.integers(0, 15, RIGHT_ROWS), 0.15),
            "w": rng.integers(0, 100, RIGHT_ROWS).tolist(),
        },
    )
    return left, right


def _positions(kind: str, size: int, seed: int) -> np.ndarray:
    """Row positions of a seeded slice: every row, a random subset, or none."""
    if kind == "full":
        return np.arange(size)
    if kind == "partial":
        return np.flatnonzero(np.random.default_rng(seed).random(size) < 0.6)
    assert kind == "empty"
    return np.empty(0, dtype=np.int64)


def _one_slice(alias: str, table: Table, positions: np.ndarray) -> TaggedRelation:
    return TaggedRelation.from_base_table(alias, table).with_slices(
        {ONE: Bitmap.from_positions(table.num_rows, positions)}
    )


def _two_slices(alias: str, table: Table, positions: np.ndarray, seed: int) -> TaggedRelation:
    """The same live rows, interleaved over two slices (both non-empty)."""
    to_first = np.random.default_rng(seed).random(positions.size) < 0.5
    if positions.size >= 2:
        to_first[0], to_first[-1] = True, False
    return TaggedRelation.from_base_table(alias, table).with_slices(
        {
            FIRST: Bitmap.from_positions(table.num_rows, positions[to_first]),
            SECOND: Bitmap.from_positions(table.num_rows, positions[~to_first]),
        }
    )


def _counters(context: ExecContext, names: tuple[str, ...]) -> dict[str, int]:
    return {name: getattr(context.metrics, name) for name in names}


PREDICATES = {
    "range": col("l", "v") > lit(0.35),
    "disjunction": or_(col("l", "v") < lit(0.2), col("l", "k") > lit(8)),
    "nothing": col("l", "v") > lit(2.0),
}


@pytest.mark.parametrize("kind", ["full", "partial", "empty"])
@pytest.mark.parametrize("predicate_name", sorted(PREDICATES))
def test_filter_one_slice_matches_general_path(tables, kind, predicate_name):
    left, _right = tables
    predicate = PREDICATES[predicate_name]
    positions = _positions(kind, LEFT_ROWS, seed=1)
    one = _one_slice("l", left, positions)
    split = _two_slices("l", left, positions, seed=2)
    assert len(one.slices) == (0 if kind == "empty" else 1)
    assert len(split.slices) == (0 if kind == "empty" else 2)

    fast_context, general_context = ExecContext(), ExecContext()
    fast = TaggedFilterOperator(
        predicate, FilterTagMap({ONE: FilterEntry(pos_tag=OUT)})
    ).execute(one, fast_context)
    general = TaggedFilterOperator(
        predicate,
        FilterTagMap({FIRST: FilterEntry(pos_tag=OUT), SECOND: FilterEntry(pos_tag=OUT)}),
    ).execute(split, general_context)

    assert fast.materialize_rows() == general.materialize_rows()
    assert fast.tags() == general.tags()
    assert _counters(fast_context, FILTER_COUNTERS) == _counters(
        general_context, FILTER_COUNTERS
    )
    if kind != "empty":
        # The one-slice path compacts: only live rows remain.
        assert fast.num_rows == fast.live_rows


@pytest.mark.parametrize("left_kind", ["full", "partial", "empty"])
@pytest.mark.parametrize("right_kind", ["full", "partial"])
@pytest.mark.parametrize("split_side", ["left", "right", "both"])
def test_join_one_slice_matches_general_path(tables, left_kind, right_kind, split_side):
    left_table, right_table = tables
    left_positions = _positions(left_kind, LEFT_ROWS, seed=3)
    right_positions = _positions(right_kind, RIGHT_ROWS, seed=4)
    conditions = [JoinCondition(col("l", "k"), col("r", "fk"))]

    fast_context = ExecContext()
    fast = TaggedJoinOperator(conditions, JoinTagMap({(ONE, ONE): OUT})).execute(
        _one_slice("l", left_table, left_positions),
        _one_slice("r", right_table, right_positions),
        fast_context,
    )

    left, left_tags = _one_slice("l", left_table, left_positions), [ONE]
    right, right_tags = _one_slice("r", right_table, right_positions), [ONE]
    if split_side in ("left", "both"):
        left, left_tags = _two_slices("l", left_table, left_positions, seed=5), [FIRST, SECOND]
    if split_side in ("right", "both"):
        right, right_tags = _two_slices("r", right_table, right_positions, seed=6), [FIRST, SECOND]
    entries = {(lt, rt): OUT for lt in left_tags for rt in right_tags}
    general_context = ExecContext()
    general = TaggedJoinOperator(conditions, JoinTagMap(entries)).execute(
        left, right, general_context
    )

    assert fast.materialize_rows() == general.materialize_rows()
    assert fast.tags() == general.tags()
    assert _counters(fast_context, JOIN_COUNTERS) == _counters(general_context, JOIN_COUNTERS)
    if left_kind != "empty":
        assert fast_context.metrics.hash_tables_built == 1
        # NULL keys never join.
        null_keys = {row for row in range(LEFT_ROWS) if left_table.row(row)["k"] is None}
        assert not null_keys & {row["l"] for row in fast.materialize_rows()}

    # The bypass join runs the same kernel on the same rows, compacted into streams.
    bypass_context = ExecContext()
    streams = BypassJoinOperator(conditions, None).execute(
        StreamSet([TaggedRelation.from_base_table("l", left_table).take(left_positions, ONE)]),
        StreamSet([TaggedRelation.from_base_table("r", right_table).take(right_positions, ONE)]),
        bypass_context,
    )
    assert [row for stream in streams for row in stream.materialize_rows()] == (
        fast.materialize_rows()
    )
    assert _counters(bypass_context, BYPASS_JOIN_COUNTERS) == _counters(
        fast_context, BYPASS_JOIN_COUNTERS
    )


def test_join_pair_without_map_entry_is_empty(tables):
    left_table, right_table = tables
    context = ExecContext()
    output = TaggedJoinOperator(
        [JoinCondition(col("l", "k"), col("r", "fk"))], JoinTagMap({(ONE, FIRST): OUT})
    ).execute(
        _one_slice("l", left_table, np.arange(LEFT_ROWS)),
        _one_slice("r", right_table, np.arange(RIGHT_ROWS)),
        context,
    )
    assert output.live_rows == 0
    assert context.metrics.hash_tables_built == 0
