"""Unit tests for columns and simulated page-granular reads."""

import numpy as np
import pytest

from repro.storage.column import Column, ColumnType, column_from_iterable
from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache


class TestTypeInference:
    def test_int_inference(self):
        assert Column("c", [1, 2, 3]).ctype is ColumnType.INT

    def test_float_inference(self):
        assert Column("c", [1.5, 2.5]).ctype is ColumnType.FLOAT

    def test_string_inference(self):
        assert Column("c", ["a", "b"]).ctype is ColumnType.STRING

    def test_bool_inference(self):
        assert Column("c", [True, False]).ctype is ColumnType.BOOL

    def test_nulls_skipped_for_inference(self):
        assert Column("c", [None, 3, None]).ctype is ColumnType.INT

    def test_all_null_defaults_to_string(self):
        assert Column("c", [None, None]).ctype is ColumnType.STRING

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            Column("c", [object()])

    def test_explicit_type_overrides_inference(self):
        column = Column("c", [1, 2], ctype=ColumnType.FLOAT)
        assert column.ctype is ColumnType.FLOAT
        assert column.data.dtype == np.float64


class TestNulls:
    def test_none_values_become_nulls(self):
        column = Column("c", [1, None, 3])
        assert column.has_nulls()
        assert list(column.null_mask) == [False, True, False]

    def test_explicit_null_mask(self):
        column = Column("c", [1, 2, 3], null_mask=np.array([False, True, False]))
        assert column.has_nulls()

    def test_null_mask_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Column("c", [1, 2], null_mask=np.array([True]))

    def test_values_list_restores_none(self):
        assert Column("c", [1, None, 3]).values_list() == [1, None, 3]


class TestStats:
    def test_distinct_count(self):
        assert Column("c", [1, 1, 2, 3, 3]).distinct_count() == 3

    def test_distinct_count_ignores_nulls(self):
        assert Column("c", [1, None, 1]).distinct_count() == 1

    def test_min_max(self):
        assert Column("c", [5, 1, 9]).min_max() == (1, 9)

    def test_min_max_all_null(self):
        assert Column("c", [None, None], ctype=ColumnType.INT).min_max() is None

    def test_num_pages(self):
        column = Column("c", list(range(2500)), page_size=1000)
        assert column.num_pages == 3

    def test_num_pages_empty(self):
        assert Column("c", [], ctype=ColumnType.INT).num_pages == 0

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            Column("c", [1], page_size=0)


class TestReads:
    def test_full_read(self):
        column = Column("c", [10, 20, 30])
        values, nulls = column.read_at(np.arange(3), iostats=IOStats())
        assert list(values) == [10, 20, 30]
        assert not nulls.any()

    def test_read_at_returns_selected_rows(self):
        column = Column("c", [10, 20, 30, 40])
        stats = IOStats()
        values, _ = column.read_at(np.array([1, 3]), iostats=stats)
        assert list(values) == [20, 40]
        assert stats.values_read == 2

    def test_read_at_repeats_positions(self):
        column = Column("c", [10, 20, 30])
        values, _ = column.read_at(np.array([2, 2, 0]), iostats=IOStats())
        assert list(values) == [30, 30, 10]

    def test_full_read_counts_sequential_scan(self):
        column = Column("c", list(range(5000)), page_size=1000)
        stats = IOStats()
        column.read_at(np.arange(5000), iostats=stats)
        assert stats.sequential_scans == 1
        assert stats.pages_read == 5

    def test_selective_read_touches_only_needed_pages(self):
        column = Column("c", list(range(10_000)), page_size=1000)
        stats = IOStats()
        column.read_at(np.array([5, 1500]), iostats=stats)
        assert stats.selective_reads == 1
        assert stats.pages_read == 2

    def test_high_selectivity_read_falls_back_to_sequential(self):
        column = Column("c", list(range(1000)), page_size=100)
        stats = IOStats()
        column.read_at(np.arange(500), iostats=stats)
        assert stats.sequential_scans == 1

    def test_cache_hits_are_recorded(self):
        column = Column("c", list(range(10_000)), page_size=1000)
        cache = LFUPageCache(capacity=16)
        stats = IOStats()
        positions = np.array([1, 2, 3])
        column.read_at(positions, cache=cache, iostats=stats)
        column.read_at(positions, cache=cache, iostats=stats)
        assert stats.pages_hit >= 1

    def test_read_nulls_propagated(self):
        column = Column("c", [1.0, None, 3.0])
        _, nulls = column.read_at(np.array([1]), iostats=IOStats())
        assert nulls[0]


class TestConvenience:
    def test_column_from_iterable(self):
        column = column_from_iterable("c", (x * x for x in range(4)))
        assert len(column) == 4
        assert column.data[3] == 9

    def test_repr(self):
        assert "rows=2" in repr(Column("c", [1, 2]))
