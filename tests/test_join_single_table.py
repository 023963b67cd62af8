"""The tagged join builds one hash table and probes it once.

Every participating row of both sides goes through one kernel call; a pair
survives when the tag map pairs its two slices, under that entry's output tag.
The reference joins each mapped slice pair on its own with a nested loop.  The
work accounting counts the rows the kernel builds and probes: its non-NULL
keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operators import TaggedJoinOperator
from repro.core.tagged_relation import TaggedRelation
from repro.core.tagmap import JoinTagMap
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.expr.builders import col
from repro.expr.three_valued import TRUE
from repro.plan.query import JoinCondition
from repro.storage.table import Table
from repro.utils.join import builds_on_left
from tests.conftest import sliced_relation


def _tag(name: str) -> Tag:
    return Tag({f"({name})": TRUE})


A1, A2, A3, A4, UNMAPPED = (_tag(name) for name in ("a1", "a2", "a3", "a4", "unmapped"))
B1, B2, B3 = (_tag(name) for name in ("b1", "b2", "b3"))
X, Y = _tag("x"), _tag("y")

#: Incompatible pairs: (A1, B3), (A2, B1), (A3, B1), (A3, B2); A4 is absent
#: from the input and UNMAPPED has no entry.
ENTRIES = {
    (A1, B1): X,
    (A1, B2): Y,
    (A2, B2): X,
    (A2, B3): X,
    (A3, B3): Y,
    (A4, B1): Y,
}
CONDITIONS = [JoinCondition(col("l", "k"), col("r", "fk"))]
LEFT_ROWS, RIGHT_ROWS = 40, 30


def _keys(rng: np.random.Generator, rows: int) -> list:
    """Keys from a small domain (many-to-many) with NULLs."""
    return [None if rng.random() < 0.15 else int(key) for key in rng.integers(0, 5, rows)]


def _sliced(alias: str, table: Table, tags: list[Tag], rng: np.random.Generator):
    """``table`` split over ``tags`` (some rows in no slice), and each row's tag."""
    choice = rng.integers(0, len(tags) + 1, table.num_rows)  # the last = no slice
    slices = {tag: np.flatnonzero(choice == index) for index, tag in enumerate(tags)}
    row_tags = [tags[index] if index < len(tags) else None for index in choice]
    return sliced_relation(alias, table, slices), row_tags


def _reference(left_keys, left_tags, right_keys, right_tags) -> list[tuple[int, int, Tag]]:
    """Each mapped slice pair joined on its own by a nested loop."""
    triples = []
    for (left_tag, right_tag), out_tag in ENTRIES.items():
        for i, (left_key, tag_i) in enumerate(zip(left_keys, left_tags)):
            for j, (right_key, tag_j) in enumerate(zip(right_keys, right_tags)):
                if (tag_i, tag_j) == (left_tag, right_tag) and left_key is not None:
                    if left_key == right_key:
                        triples.append((i, j, out_tag))
    return triples


def _live_triples(relation: TaggedRelation) -> list[tuple[int, int, Tag]]:
    return [
        (int(relation.indices["l"][pos]), int(relation.indices["r"][pos]), tag)
        for tag in relation.tags
        for pos in relation.slice_positions(tag)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_one_table_matches_per_slice_pair_joins(seed):
    rng = np.random.default_rng(seed)
    left_keys, right_keys = _keys(rng, LEFT_ROWS), _keys(rng, RIGHT_ROWS)
    left_table = Table.from_dict("l", {"k": left_keys})
    right_table = Table.from_dict("r", {"fk": right_keys})
    left, left_tags = _sliced("l", left_table, [A1, A2, A3, UNMAPPED], rng)
    right, right_tags = _sliced("r", right_table, [B1, B2, B3], rng)

    context = ExecContext()
    output = TaggedJoinOperator(CONDITIONS, JoinTagMap(ENTRIES)).execute(left, right, context)

    expected = _reference(left_keys, left_tags, right_keys, right_tags)
    assert sorted(_live_triples(output), key=repr) == sorted(expected, key=repr)
    # no dead pair is materialized
    assert sum(output.slice_positions(tag).size for tag in output.tags) == output.num_rows
    metrics = context.metrics
    assert metrics.hash_tables_built == 1
    assert metrics.join_output_rows == len(expected)
    assert metrics.slices_created == len({tag for _, _, tag in expected})


def test_hash_build_accounting_counts_non_null_keys():
    # 10 left rows, 8 with a NULL key, against 5 right rows: the kernel builds
    # the 2 non-NULL left keys and probes with the 5 right ones.
    left_table = Table.from_dict("l", {"k": [None] * 4 + [1] + [None] * 4 + [3]})
    right_table = Table.from_dict("r", {"fk": [3, 1, 1, 4, 3]})
    one = JoinTagMap({(Tag.empty(), Tag.empty()): Tag.empty()})
    context = ExecContext()
    output = TaggedJoinOperator(CONDITIONS, one).execute(
        TaggedRelation.from_base_table("l", left_table),
        TaggedRelation.from_base_table("r", right_table),
        context,
    )
    assert builds_on_left(2, 5)
    metrics = context.metrics
    assert (metrics.hash_tables_built, metrics.join_build_rows, metrics.join_probe_rows) == (
        1,
        2,
        5,
    )
    assert sorted(_live_triples(output)) == sorted(
        (left, right, Tag.empty()) for left, right in [(9, 0), (4, 1), (4, 2), (9, 4)]
    )
