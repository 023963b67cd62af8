"""Unit tests for the mutation subsystem: batches, deltas, incremental maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Column, ColumnType, Session, Table
from repro.access.indexes import BitmapIndex, SortedIndex
from repro.access.manager import ensure_access_manager
from repro.access.zonemap import build_zone_map, extend_zone_map
from repro.expr.builders import col, is_null, lit
from repro.mutation import MutationError
from repro.stats.table_stats import collect_table_stats


def small_catalog() -> Catalog:
    return Catalog(
        [
            Table.from_dict(
                "t",
                {
                    "id": list(range(10)),
                    "v": [float(i) for i in range(10)],
                    "s": [f"s{i % 3}" for i in range(10)],
                },
            ),
            Table.from_dict("u", {"id": list(range(4)), "w": [1, 2, 3, 4]}),
        ]
    )


class TestStaging:
    def test_insert_unknown_column_raises(self):
        batch = small_catalog().begin_mutation()
        with pytest.raises(MutationError, match="unknown columns"):
            batch.insert("t", [{"nope": 1}])

    def test_missing_columns_become_null(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100}])
        batch.commit()
        assert catalog.get("t").row(10) == {"id": 100, "v": None, "s": None}

    def test_delete_needs_exactly_one_selector(self):
        batch = small_catalog().begin_mutation()
        with pytest.raises(MutationError, match="exactly one"):
            batch.delete("t")
        with pytest.raises(MutationError, match="exactly one"):
            batch.delete("t", positions=[1], where="t.id = 1")

    def test_delete_position_out_of_range(self):
        batch = small_catalog().begin_mutation()
        with pytest.raises(MutationError, match="out of range"):
            batch.delete("t", positions=[10])

    def test_delete_where_counts_matches(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        assert batch.delete("t", where="t.v > 6.5") == 3
        batch.commit()
        assert catalog.get("t").num_live == 7

    def test_delete_where_expression_object(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        assert batch.delete("t", where=col("t", "id").eq(lit(3))) == 1
        batch.commit()
        assert not any(row["id"] == 3 for row in catalog.get("t").rows(
            np.flatnonzero(~catalog.get("t").delete_mask)
        ))

    def test_delete_already_deleted_raises(self):
        catalog = small_catalog()
        first = catalog.begin_mutation()
        first.delete("t", positions=[2])
        first.commit()
        second = catalog.begin_mutation()
        with pytest.raises(MutationError, match="already-deleted"):
            second.delete("t", positions=[2])

    def test_batch_cannot_be_reused_after_commit(self):
        batch = small_catalog().begin_mutation()
        batch.commit()
        with pytest.raises(MutationError, match="already committed"):
            batch.insert("t", [{"id": 1}])

    def test_abort_discards_everything(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100}])
        batch.abort()
        assert catalog.get("t").num_rows == 10
        assert catalog.version == 2  # unchanged


class TestCommit:
    def test_empty_commit_does_not_bump_version(self):
        catalog = small_catalog()
        before = catalog.version
        commit = catalog.begin_mutation().commit()
        assert catalog.version == before
        assert commit.tables == []

    def test_copy_on_write_preserves_old_table(self):
        catalog = small_catalog()
        old = catalog.get("t")
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0, "s": "x"}])
        batch.delete("t", positions=[0])
        batch.commit()
        assert old.num_rows == 10 and not old.has_deletes()
        new = catalog.get("t")
        assert new is not old
        assert new.num_rows == 11 and new.num_deleted == 1

    def test_delete_only_commit_shares_columns(self):
        catalog = small_catalog()
        old_columns = catalog.get("t").columns()
        batch = catalog.begin_mutation()
        batch.delete("t", positions=[1])
        batch.commit()
        assert catalog.get("t").columns() == old_columns

    def test_appended_rows_visible_in_order(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 50, "v": 0.5, "s": "a"}, {"id": 51, "v": 1.5, "s": "b"}])
        batch.commit()
        result = Session(catalog).execute("SELECT t.id FROM t AS t WHERE t.id >= 0")
        assert [row[0] for row in result.rows][-2:] == [50, 51]

    def test_delta_summary_numbers(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 99.0}, {"id": 101}])
        batch.delete("t", positions=[0, 4])
        commit = batch.commit()
        delta = commit.deltas["t"]
        assert delta.appended_rows == 2
        assert delta.deleted_count == 2
        assert delta.old_num_rows == 10 and delta.new_num_rows == 12
        v = delta.columns["v"]
        assert v.appended_nulls == 1 and v.appended_distinct == 1
        assert v.appended_min == 99.0 and v.appended_max == 99.0


class TestStatistics:
    def test_collect_stats_over_live_rows_only(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        batch.delete("t", where="t.v >= 8.0")
        batch.commit()
        stats = collect_table_stats(catalog.get("t"))
        assert stats.num_rows == 8
        assert stats.columns["v"].max_value == 7.0
        assert stats.columns["v"].distinct_count == 8

    def test_apply_delta_matches_exact_fields(self):
        catalog = small_catalog()
        before = collect_table_stats(catalog.get("t"))
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 50.0, "s": None}, {"id": 101, "v": -1.0, "s": "zz"}])
        batch.delete("t", positions=[3])
        commit = batch.commit()
        merged = before.apply_delta(commit.deltas["t"])
        fresh = collect_table_stats(catalog.get("t"))
        assert merged.num_rows == fresh.num_rows == 11
        for name in ("id", "v", "s"):
            assert merged.columns[name].null_count == fresh.columns[name].null_count
        # Min/max widen-only merge picks up the appended extremes exactly here.
        assert merged.columns["v"].min_value == -1.0
        assert merged.columns["v"].max_value == 50.0

    def test_extended_column_seeds_merged_bounds(self):
        catalog = small_catalog()
        column = catalog.get("t").column("v")
        column.min_max()  # warm the memo the merge extends
        column.distinct_count()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 123.0}])
        batch.commit()
        new_column = catalog.get("t").column("v")
        distinct, bounds, known = new_column.cached_statistics()
        assert known and bounds == (0.0, 123.0)
        assert distinct == 11

    def test_integer_distinct_counts_stay_inside_the_value_span(self):
        rng = np.random.default_rng(5)
        catalog = Catalog(
            [
                Table(
                    "e",
                    [
                        Column("cat_id", rng.integers(0, 80, 800)),
                        Column("flag", rng.random(800) < 0.5),
                    ],
                )
            ]
        )
        for column in catalog.get("e").columns():
            column.min_max()  # warm the memo the merge extends
            column.distinct_count()
        stats = collect_table_stats(catalog.get("e"))
        for _ in range(20):
            batch = catalog.begin_mutation()
            batch.insert(
                "e",
                [
                    {"cat_id": int(value), "flag": bool(value % 2)}
                    for value in rng.integers(0, 80, 50)
                ],
            )
            stats = stats.apply_delta(batch.commit().deltas["e"])
            table = catalog.get("e")
            for name, domain in (("cat_id", 80), ("flag", 2)):
                # The column-extension path and the statistics-delta path.
                assert table.column(name).cached_statistics()[0] <= domain
                assert stats.columns[name].distinct_count <= domain

    def test_unwarmed_column_stays_lazy(self):
        catalog = small_catalog()
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 123.0}])
        batch.commit()
        _distinct, _bounds, known = catalog.get("t").column("v").cached_statistics()
        assert not known


class TestAccessMaintenance:
    def _mutate(self, catalog: Catalog, rows: int = 40) -> None:
        batch = catalog.begin_mutation()
        batch.insert(
            "e",
            [{"id": 1000 + i, "k": (1000 + i) % 17, "x": float(i)} for i in range(rows)],
        )
        batch.delete("e", positions=[0, 5, 7])
        batch.commit()

    def _catalog(self) -> Catalog:
        return Catalog(
            [
                Table(
                    "e",
                    [
                        Column("id", np.arange(600), page_size=64),
                        Column("k", np.arange(600) % 17, page_size=64),
                        Column("x", np.arange(600).astype(float), page_size=64),
                    ],
                )
            ]
        )

    def test_commit_extends_instead_of_rebuilding(self):
        catalog = self._catalog()
        manager = ensure_access_manager(catalog)
        manager.create_index("e", "k", kind="bitmap")
        manager.create_index("e", "x", kind="sorted")
        manager.zone_map("e", "x")
        built_before = manager.stats.zone_maps_built
        indexes_before = manager.stats.indexes_built
        self._mutate(catalog)
        assert manager.stats.zone_maps_extended == 1
        assert manager.stats.indexes_extended == 2
        assert manager.stats.zone_maps_built == built_before
        assert manager.stats.indexes_built == indexes_before
        # The carried structures must answer like freshly built ones.
        table = catalog.get("e")
        assert manager.index_for("e", "x").size == table.num_rows
        rebuilt = SortedIndex.build(table.column("x"))
        extended = manager.index_for("e", "x")
        assert np.array_equal(rebuilt.sorted_positions, extended.sorted_positions)

    def test_candidates_fold_delete_bitmap(self):
        catalog = self._catalog()
        manager = ensure_access_manager(catalog)
        manager.create_index("e", "k", kind="bitmap")
        predicate = col("e", "k").eq(lit(3))
        before = manager.candidates("e", predicate)
        deleted = int(before[0])
        batch = catalog.begin_mutation()
        batch.delete("e", positions=[deleted])
        batch.commit()
        after = manager.candidates("e", predicate)
        assert after.tolist() == before[1:].tolist()

    def test_deleted_rows_never_surface_without_access_paths(self):
        catalog = self._catalog()
        batch = catalog.begin_mutation()
        batch.delete("e", where="e.k = 3")
        batch.commit()
        result = Session(catalog, access_paths=False).execute(
            "SELECT e.id FROM e AS e WHERE e.k = 3 OR e.id < 5"
        )
        assert all(row[0] % 17 != 3 or row[0] < 5 for row in result.rows)
        kept = Session(catalog, access_paths=False).execute(
            "SELECT e.id FROM e AS e WHERE e.k = 4"
        )
        assert kept.row_count == len([i for i in range(600) if i % 17 == 4])


class TestExtensionEquivalence:
    @pytest.mark.parametrize("kind", ["bitmap", "sorted"])
    def test_extended_index_answers_like_rebuilt(self, kind):
        rng = np.random.default_rng(3)
        old_values = [float(v) for v in rng.integers(0, 40, 800)]
        old_values[10] = None
        old_values[20] = float("nan")
        appended = [float(v) for v in rng.integers(20, 120, 150)] + [None, float("nan")]
        old_column = Column("c", old_values, page_size=100)
        full_column = Column("c", old_values + appended, page_size=100)
        cls = BitmapIndex if kind == "bitmap" else SortedIndex
        extended = cls.build(old_column).extended(full_column, len(old_values))
        rebuilt = cls.build(full_column)
        probes = [
            col("t", "c").eq(lit(25.0)),
            col("t", "c") < lit(30.0),
            col("t", "c") >= lit(100.0),
            col("t", "c").ne(lit(25.0)),
            is_null(col("t", "c")),
        ]
        for predicate in probes:
            assert np.array_equal(extended.lookup(predicate), rebuilt.lookup(predicate))

    def test_bitmap_extension_from_all_null_column(self):
        # The pre-append dictionary is empty (every cell NULL): extension
        # must introduce the first real dictionary entries without touching
        # the (all-NULL) old codes.
        old_column = Column("c", [None] * 50, ctype=ColumnType.FLOAT)
        full_column = Column("c", [None] * 50 + [1.5, None, 2.5], ctype=ColumnType.FLOAT)
        extended = BitmapIndex.build(old_column).extended(full_column, 50)
        rebuilt = BitmapIndex.build(full_column)
        for predicate in (
            col("t", "c").eq(lit(1.5)),
            is_null(col("t", "c")),
            col("t", "c").ne(lit(1.5)),
        ):
            assert np.array_equal(extended.lookup(predicate), rebuilt.lookup(predicate))

    def test_extended_zone_map_equals_rebuilt(self):
        rng = np.random.default_rng(4)
        old_values = list(rng.uniform(0, 1, 500))
        appended = list(rng.uniform(0.5, 2.0, 130))
        old_column = Column("c", old_values, page_size=64)
        full_column = Column("c", old_values + appended, page_size=64)
        extended = extend_zone_map(build_zone_map(old_column), full_column, 500)
        rebuilt = build_zone_map(full_column)
        assert extended.mins == rebuilt.mins
        assert extended.maxs == rebuilt.maxs
        assert np.array_equal(extended.row_counts, rebuilt.row_counts)
