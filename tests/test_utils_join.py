"""Unit tests for the join kernel and key encoding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.join import equi_join_indices
from repro.utils.keys import composite_keys


def brute_force_pairs(left, right):
    return sorted(
        (i, j)
        for i, l in enumerate(left)
        for j, r in enumerate(right)
        if l == r and l >= 0 and r >= 0
    )


class TestEquiJoin:
    def test_simple_match(self):
        left = np.array([1, 2, 3])
        right = np.array([2, 3, 4])
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [(1, 0), (2, 1)]

    def test_duplicates_produce_all_pairs(self):
        left = np.array([1, 1, 2])
        right = np.array([1, 2, 2])
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == brute_force_pairs(left, right)

    def test_no_matches(self):
        li, ri = equi_join_indices(np.array([1, 2]), np.array([3, 4]))
        assert li.size == 0 and ri.size == 0

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        li, ri = equi_join_indices(empty, np.array([1]))
        assert li.size == 0
        li, ri = equi_join_indices(np.array([1]), empty)
        assert li.size == 0

    def test_negative_keys_never_match(self):
        left = np.array([-1, 2])
        right = np.array([-1, 2])
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [(1, 1)]

    def test_all_negative(self):
        li, ri = equi_join_indices(np.array([-1, -1]), np.array([-1]))
        assert li.size == 0

    def test_matches_brute_force_on_random_input(self):
        rng = np.random.default_rng(0)
        left = rng.integers(0, 20, size=200)
        right = rng.integers(0, 20, size=150)
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == brute_force_pairs(left, right)

    def test_skewed_keys(self):
        left = np.zeros(50, dtype=np.int64)
        right = np.zeros(30, dtype=np.int64)
        li, _ = equi_join_indices(left, right)
        assert li.size == 50 * 30


class TestCompositeKeys:
    def _column(self, values, nulls=None):
        values = np.asarray(values)
        if nulls is None:
            nulls = np.zeros(len(values), dtype=bool)
        return values, np.asarray(nulls, dtype=bool)

    def test_single_int_column(self):
        left, right = composite_keys(
            [self._column([1, 2, 3])], [self._column([3, 1])]
        )
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [(0, 1), (2, 0)]

    def test_string_columns(self):
        left, right = composite_keys(
            [self._column(np.array(["a", "b"], dtype=object))],
            [self._column(np.array(["b", "c"], dtype=object))],
        )
        li, ri = equi_join_indices(left, right)
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 0)]

    def test_nulls_get_negative_keys(self):
        left, _right = composite_keys(
            [self._column([1, 2], nulls=[False, True])], [self._column([1, 2])]
        )
        assert left[1] == -1

    def test_composite_two_columns(self):
        left, right = composite_keys(
            [self._column([1, 1, 2]), self._column([10, 20, 10])],
            [self._column([1, 2]), self._column([20, 10])],
        )
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [(1, 0), (2, 1)]

    def test_equal_tuples_get_equal_codes_across_sides(self):
        left, right = composite_keys(
            [self._column([7, 9])], [self._column([9, 7])]
        )
        assert left[0] == right[1]
        assert left[1] == right[0]

    def test_mismatched_condition_counts_rejected(self):
        with pytest.raises(ValueError):
            composite_keys([self._column([1])], [])

    def test_requires_at_least_one_column(self):
        with pytest.raises(ValueError):
            composite_keys([], [])

    def test_wide_integer_values_still_give_dense_keys(self):
        ids = np.array([10**15, -(10**15), 7, 10**15])
        left, right = composite_keys([self._column(ids)], [self._column(ids[::-1])])
        assert max(left.max(), right.max()) < 4
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(li.tolist(), ri.tolist())) == [
            (0, 0), (0, 3), (1, 2), (2, 1), (3, 0), (3, 3)
        ]


class TestCompositeKeyOverflow:
    """The mixed-radix fold must never leave int64 (wrapped keys read as NULL)."""

    def test_four_permutation_columns_join_with_themselves(self):
        # 60 000⁴ ≈ 1.3e19 > 2⁶³: before the guard 17 300 keys wrapped
        # negative and this self-join returned 42 700 of its 60 000 pairs.
        rng = np.random.default_rng(0)
        rows = 60_000
        no_nulls = np.zeros(rows, dtype=bool)
        columns = [(rng.permutation(rows), no_nulls) for _ in range(4)]
        left, right = composite_keys(columns, columns)
        li, ri = equi_join_indices(left, right)
        assert li.size == rows
        assert np.array_equal(li, ri)
        assert (left >= 0).all() and (right >= 0).all()

    def test_three_columns_spanning_two_to_the_31(self):
        # The widest span that is offset rather than factorized: two folds
        # fit (2⁶²), the third must re-compress first.
        rng = np.random.default_rng(1)
        rows = 500
        no_nulls = np.zeros(rows, dtype=bool)
        values = [rng.integers(0, 2**31, size=rows) for _ in range(3)]
        for column in values:
            column[:2] = (0, 2**31 - 1)
        shuffle = rng.permutation(rows)
        left, right = composite_keys(
            [(column, no_nulls) for column in values],
            [(column[shuffle], no_nulls) for column in values],
        )
        assert (left >= 0).all() and (right >= 0).all()
        li, ri = equi_join_indices(left, right)
        assert sorted(zip(shuffle[ri].tolist(), li.tolist())) == [(i, i) for i in range(rows)]


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
join_keys = st.lists(st.integers(min_value=-2, max_value=9), max_size=24)


def nested_loop_pairs(left, right):
    """The kernel's contract: right-major, left ascending within a right row."""
    return [
        (i, j)
        for j, right_key in enumerate(right)
        for i, left_key in enumerate(left)
        if left_key == right_key and left_key >= 0
    ]


@st.composite
def one_partner_keys(draw):
    """``(left, right)`` keys whose built (smaller) side has unique non-NULL keys,
    so no probe row has two partners; either side may be the built one."""
    built = draw(st.lists(st.integers(0, 15), unique=True, max_size=10))
    probed = draw(st.lists(st.integers(0, 15), min_size=len(built) + 1, max_size=24))
    built = draw(st.permutations(built + [-1] * draw(st.integers(0, 3))))
    probed = draw(st.permutations(probed + [-1] * draw(st.integers(0, 3))))
    return (built, probed) if draw(st.booleans()) else (probed, built)


class TestEquiJoinOrderProperty:
    @given(join_keys, join_keys)
    @example([3, 3, 1, -1, 3, 0, 1], [1, 3])  # left larger: the right side is built
    @example([1, 3], [3, 3, 1, -1, 3, 0, 1])  # right larger: the left side is built
    @example([2, 1, 2], [1, 2, 2])  # equal sizes
    @example([-1, -1, -1, 5], [5, 5])  # left larger, but fewer valid keys
    @example([], [1, 2])
    @example([1, 2], [])
    def test_pairs_and_their_order_match_a_nested_loop(self, left, right):
        li, ri = equi_join_indices(
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        )
        assert list(zip(li.tolist(), ri.tolist())) == nested_loop_pairs(left, right)

    @given(one_partner_keys())
    @example(([2, -1, 0], [0, 0, 5, 2, -1, 2]))  # the left side is built
    @example(([0, 0, 5, 2, -1, 2], [2, -1, 0]))  # the right side is built
    def test_one_partner_pairs_keep_the_nested_loop_order(self, keys):
        left, right = keys
        li, ri = equi_join_indices(
            np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        )
        assert list(zip(li.tolist(), ri.tolist())) == nested_loop_pairs(left, right)


#: kind -> (left pool, right pool); small pools so tuples collide.
KEY_COLUMN_KINDS = {
    "int_narrow": (np.array([-3, -1, 0, 2, 3]),) * 2,
    "int_wide": (np.array([-(2**62), -5, 0, 5, 2**62]),) * 2,
    "int_offset_limit": (np.array([0, 1, 2**31 - 2, 2**31 - 1]),) * 2,
    "uint8": (np.array([0, 1, 255], dtype=np.uint8),) * 2,
    "uint64": (np.array([0, 1, 2**64 - 1], dtype=np.uint64),) * 2,
    "bool": (np.array([False, True]),) * 2,
    "float": (np.array([-1.5, 0.0, 2.0, 1e300]),) * 2,
    "string": (np.array(["", "a", "b"], dtype=object),) * 2,
    "int_vs_float": (np.array([0, 1, 2]), np.array([0.0, 1.0, 2.5])),
    "bool_vs_int": (np.array([False, True]), np.array([0, 1, 2])),
}


@st.composite
def key_column_pairs(draw):
    left_rows = draw(st.integers(0, 7))
    right_rows = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_COLUMN_KINDS)), min_size=1, max_size=4))

    def side(pool, rows):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
        nulls = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        return pool[np.array(picks, dtype=np.int64)], np.array(nulls, dtype=bool)

    pools = [KEY_COLUMN_KINDS[kind] for kind in kinds]
    return (
        [side(pool[0], left_rows) for pool in pools],
        [side(pool[1], right_rows) for pool in pools],
    )


def key_tuples(columns):
    """Per row: the tuple of Python values, or None when any column is NULL."""
    rows = zip(*(values.tolist() for values, _nulls in columns))
    null_rows = np.logical_or.reduce([nulls for _values, nulls in columns])
    return [None if is_null else row for row, is_null in zip(rows, null_rows)]


class TestCompositeKeysProperty:
    @settings(max_examples=300)
    @given(key_column_pairs())
    def test_equal_tuples_iff_equal_keys(self, pair):
        left_columns, right_columns = pair
        left_keys, right_keys = composite_keys(left_columns, right_columns)
        keys = left_keys.tolist() + right_keys.tolist()
        tuples = key_tuples(left_columns) + key_tuples(right_columns)
        assert all(0 <= key < 8 * len(keys) for key in keys if key != -1)  # dense
        for key_a, tuple_a in zip(keys, tuples):
            assert (key_a == -1) == (tuple_a is None)
            for key_b, tuple_b in zip(keys, tuples):
                if tuple_a is not None and tuple_b is not None:
                    assert (key_a == key_b) == (tuple_a == tuple_b)
