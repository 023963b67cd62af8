"""Unit tests for repro.storage.bitmap."""

import numpy as np
import pytest

from repro.storage.bitmap import Bitmap


class TestConstruction:
    def test_empty_has_no_bits_set(self):
        bitmap = Bitmap.empty(10)
        assert bitmap.size == 10
        assert bitmap.count() == 0
        assert bitmap.is_empty()

    def test_full_has_all_bits_set(self):
        bitmap = Bitmap.full(5)
        assert bitmap.count() == 5
        assert not bitmap.is_empty()

    @pytest.mark.parametrize("size", [0, 1, 6])
    def test_full_behaves_like_its_materialized_mask(self, size):
        # A full bitmap builds its mask lazily; every view of it must agree
        # with a bitmap over an explicit all-true array.
        lazy, eager = Bitmap.full(size), Bitmap(np.ones(size, dtype=np.bool_))
        assert lazy.size == eager.size == size
        assert lazy.is_empty() == eager.is_empty() == (size == 0)
        assert lazy.positions().tolist() == eager.positions().tolist() == list(range(size))
        assert lazy.positions().dtype == eager.positions().dtype
        other = Bitmap.from_positions(size, range(0, size, 2))
        assert (lazy & other) == (eager & other) == other
        assert (lazy - other) == (eager - other)
        assert (~lazy).is_empty()
        assert lazy == eager
        assert lazy.mask.tolist() == [True] * size

    def test_from_positions(self):
        bitmap = Bitmap.from_positions(8, [1, 3, 5])
        assert bitmap.count() == 3
        assert list(bitmap.positions()) == [1, 3, 5]

    def test_from_positions_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Bitmap.from_positions(4, [5])

    def test_from_positions_negative_raises(self):
        with pytest.raises(IndexError):
            Bitmap.from_positions(4, [-1])

    def test_from_positions_empty(self):
        bitmap = Bitmap.from_positions(4, [])
        assert bitmap.is_empty()

    def test_from_mask_copies(self):
        mask = np.array([True, False, True])
        bitmap = Bitmap.from_mask(mask)
        mask[0] = False
        assert bitmap.get(0) is True

    def test_non_bool_input_is_coerced(self):
        bitmap = Bitmap(np.array([1, 0, 1], dtype=np.int64))
        assert bitmap.count() == 2


class TestIntrospection:
    def test_selectivity(self):
        assert Bitmap.from_positions(10, [0, 1]).selectivity() == pytest.approx(0.2)

    def test_selectivity_of_empty_size(self):
        assert Bitmap.empty(0).selectivity() == 0.0

    def test_get(self):
        bitmap = Bitmap.from_positions(4, [2])
        assert bitmap.get(2) is True
        assert bitmap.get(1) is False

    def test_len_and_iter(self):
        bitmap = Bitmap.from_positions(6, [0, 5])
        assert len(bitmap) == 6
        assert list(bitmap) == [0, 5]

    def test_repr_mentions_counts(self):
        assert "set=2" in repr(Bitmap.from_positions(4, [0, 1]))

    def test_equality(self):
        assert Bitmap.from_positions(4, [1]) == Bitmap.from_positions(4, [1])
        assert Bitmap.from_positions(4, [1]) != Bitmap.from_positions(4, [2])
        assert Bitmap.from_positions(4, [1]) != Bitmap.from_positions(5, [1])

    def test_equality_with_other_type(self):
        assert Bitmap.empty(2).__eq__(42) is NotImplemented


class TestSetAlgebra:
    def test_union(self):
        left = Bitmap.from_positions(6, [0, 1])
        right = Bitmap.from_positions(6, [1, 4])
        assert list((left | right).positions()) == [0, 1, 4]

    def test_intersection(self):
        left = Bitmap.from_positions(6, [0, 1, 2])
        right = Bitmap.from_positions(6, [1, 2, 3])
        assert list((left & right).positions()) == [1, 2]

    def test_difference(self):
        left = Bitmap.from_positions(6, [0, 1, 2])
        right = Bitmap.from_positions(6, [1])
        assert list((left - right).positions()) == [0, 2]

    def test_complement(self):
        bitmap = Bitmap.from_positions(4, [0, 2])
        assert list((~bitmap).positions()) == [1, 3]

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="size mismatch"):
            Bitmap.empty(3).union(Bitmap.empty(4))

    def test_operations_do_not_mutate_operands(self):
        left = Bitmap.from_positions(4, [0])
        right = Bitmap.from_positions(4, [1])
        _ = left | right
        assert left.count() == 1
        assert right.count() == 1

    def test_union_all(self):
        bitmaps = [Bitmap.from_positions(5, [i]) for i in range(3)]
        assert Bitmap.union_all(bitmaps).count() == 3

    def test_union_all_empty_requires_size(self):
        with pytest.raises(ValueError):
            Bitmap.union_all([])

    def test_union_all_empty_with_size(self):
        assert Bitmap.union_all([], size=7).size == 7
