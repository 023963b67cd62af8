"""Disk format v3: the append log, snapshot loads, compaction, CLI verbs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.cli import main
from repro.mutation import MutationError
from repro.mutation.diskops import (
    append_rows_to_saved_catalog,
    compact_saved_catalog,
    delete_rows_from_saved_catalog,
    rows_from_csv,
)
from repro.storage.column import ColumnType
from repro.storage.disk import (
    MANIFEST_NAME,
    CatalogFormatError,
    add_index_to_saved_catalog,
    load_catalog,
    save_catalog,
)


def _saved_dataset(tmp_path):
    catalog = Catalog(
        [
            Table.from_dict(
                "t",
                {
                    "id": list(range(30)),
                    "v": [float(i % 7) for i in range(30)],
                    "s": [f"n{i % 4}" for i in range(30)],
                },
            )
        ]
    )
    root = tmp_path / "data"
    save_catalog(catalog, root)
    return root


class TestAppendLog:
    def test_append_does_not_rewrite_base_files(self, tmp_path):
        root = _saved_dataset(tmp_path)
        base_file = root / "t" / "id.values.npy"
        before = base_file.stat().st_mtime_ns
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        assert base_file.stat().st_mtime_ns == before
        loaded = load_catalog(root)
        assert loaded.get("t").num_rows == 31

    def test_append_unknown_column_raises(self, tmp_path):
        root = _saved_dataset(tmp_path)
        with pytest.raises(MutationError, match="unknown columns"):
            append_rows_to_saved_catalog(root, "t", [{"nope": 1}])

    def test_delete_records_matching_positions(self, tmp_path):
        root = _saved_dataset(tmp_path)
        record = delete_rows_from_saved_catalog(root, "t", "t.v = 3.0")
        assert record["rows"] == len([i for i in range(30) if i % 7 == 3])
        loaded = load_catalog(root)
        result = Session(loaded).execute("SELECT t.id FROM t AS t WHERE t.v = 3.0")
        assert result.row_count == 0

    def test_consecutive_appends_coalesce_identically(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        append_rows_to_saved_catalog(root, "t", [{"id": 101, "v": 2.0, "s": "y"}])
        append_rows_to_saved_catalog(root, "t", [{"id": 102, "v": 3.0, "s": None}])
        table = load_catalog(root).get("t")
        assert table.num_rows == 33
        assert [table.row(position)["id"] for position in (30, 31, 32)] == [100, 101, 102]
        assert table.row(32)["s"] is None

    def test_interleaved_multi_table_appends_coalesce(self, tmp_path):
        catalog = Catalog(
            [
                Table.from_dict("a", {"id": [1, 2], "x": [1.0, 2.0]}),
                Table.from_dict("b", {"id": [1], "y": [0.5]}),
            ]
        )
        root = tmp_path / "multi"
        save_catalog(catalog, root)
        # a-appends interleaved with b-records must still all apply, and a
        # delete on b must not flush (or disturb) a's buffered appends.
        append_rows_to_saved_catalog(root, "a", [{"id": 10, "x": 10.0}])
        append_rows_to_saved_catalog(root, "b", [{"id": 20, "y": 0.9}])
        append_rows_to_saved_catalog(root, "a", [{"id": 11, "x": 11.0}])
        delete_rows_from_saved_catalog(root, "b", "b.y > 0.8")
        append_rows_to_saved_catalog(root, "a", [{"id": 12, "x": 12.0}])
        loaded = load_catalog(root)
        a = loaded.get("a")
        assert [a.row(p)["id"] for p in range(a.num_rows)] == [1, 2, 10, 11, 12]
        b = loaded.get("b")
        assert b.num_live == 1 and b.row(0)["id"] == 1

    def test_filtered_load_reads_one_table(self, tmp_path):
        catalog = Catalog(
            [
                Table.from_dict("a", {"id": [1, 2]}),
                Table.from_dict("b", {"id": [3]}),
            ]
        )
        root = tmp_path / "filtered"
        save_catalog(catalog, root)
        append_rows_to_saved_catalog(root, "a", [{"id": 10}])
        only_a = load_catalog(root, tables=["a"])
        assert only_a.table_names == ["a"]
        assert only_a.get("a").num_rows == 3
        with pytest.raises(CatalogFormatError, match="unknown table"):
            load_catalog(root, tables=["nope"])

    def test_compact_preserves_zone_map_sidecars(self, tmp_path):
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root)
        from repro.access.manager import ensure_access_manager

        ensure_access_manager(catalog).zone_map("t", "v")  # materialize
        save_catalog(catalog, root)
        assert (root / "t" / "v.zonemap.npy").exists() or (
            root / "t" / "v.zonemap.npz"
        ).exists()
        delete_rows_from_saved_catalog(root, "t", "t.id < 3")
        compact_saved_catalog(root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert any(
            entry["table"] == "t" and entry["column"] == "v"
            for entry in manifest.get("zone_maps", [])
        )
        # The rewritten sidecar must describe the compacted geometry.
        loaded = load_catalog(root)
        zone_map = loaded.access_manager.zone_map("t", "v")
        assert int(zone_map.row_counts.sum()) == 27

    def test_interleaved_log_replays_in_order(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 3.0, "s": "x"}])
        delete_rows_from_saved_catalog(root, "t", "t.v = 3.0")  # kills id=100 too
        append_rows_to_saved_catalog(root, "t", [{"id": 101, "v": 3.0, "s": "y"}])
        result = Session(load_catalog(root)).execute(
            "SELECT t.id FROM t AS t WHERE t.v = 3.0"
        )
        assert sorted(row[0] for row in result.rows) == [101]

    def test_snapshot_bounds_the_replay(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        delete_rows_from_saved_catalog(root, "t", "t.id < 5")
        assert load_catalog(root, snapshot=0).get("t").num_rows == 30
        middle = load_catalog(root, snapshot=1).get("t")
        assert middle.num_rows == 31 and not middle.has_deletes()
        full = load_catalog(root).get("t")
        assert full.num_rows == 31 and full.num_deleted == 5
        with pytest.raises(CatalogFormatError, match="out of range"):
            load_catalog(root, snapshot=9)

    def test_segment_stats_seed_merged_bounds(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 99.5, "s": "x"}])
        column = load_catalog(root).get("t").column("v")
        distinct, bounds, known = column.cached_statistics()
        assert known and bounds == (0.0, 99.5)
        assert distinct is not None


class TestSidecarCatchUp:
    def test_index_saved_before_appends_is_extended_on_load(self, tmp_path):
        root = _saved_dataset(tmp_path)
        add_index_to_saved_catalog(root, "t", "v", kind="sorted")
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 0.5, "s": "x"}])
        loaded = load_catalog(root)
        index = loaded.access_manager.index_for("t", "v")
        assert index.size == 31
        result = Session(loaded).execute("SELECT t.id FROM t AS t WHERE t.v = 0.5")
        assert 100 in {row[0] for row in result.rows}

    def test_bounded_snapshot_skips_future_sidecars(self, tmp_path):
        # Index created AFTER an append: the sidecar covers 31 rows, a
        # snapshot=0 load holds 30 — the sidecar postdates that point in
        # history and must be skipped, not treated as corruption.
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 0.5, "s": "x"}])
        add_index_to_saved_catalog(root, "t", "v", kind="sorted")
        base = load_catalog(root, snapshot=0)
        assert base.get("t").num_rows == 30
        manager = base.access_manager
        assert manager is None or not manager.has_index("t", "v")
        result = Session(base).execute("SELECT t.id FROM t AS t WHERE t.v = 0.5")
        assert 100 not in {row[0] for row in result.rows}

    def test_corrupt_row_count_raises(self, tmp_path):
        root = _saved_dataset(tmp_path)
        add_index_to_saved_catalog(root, "t", "v", kind="sorted")
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["indexes"][0]["rows"] = 999
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CatalogFormatError, match="covers"):
            load_catalog(root)


class TestDeleteMaskPersistence:
    def test_saving_a_mutated_catalog_round_trips_the_mask(self, tmp_path):
        catalog = Catalog(
            [Table.from_dict("t", {"id": list(range(10)), "v": [float(i) for i in range(10)]})]
        )
        batch = catalog.begin_mutation()
        batch.delete("t", positions=[2, 4])
        batch.commit()
        root = tmp_path / "masked"
        save_catalog(catalog, root)
        loaded = load_catalog(root)
        assert loaded.get("t").num_deleted == 2
        assert np.array_equal(loaded.get("t").delete_mask, catalog.get("t").delete_mask)


class TestCompaction:
    def test_compact_folds_log_and_preserves_results(self, tmp_path):
        root = _saved_dataset(tmp_path)
        add_index_to_saved_catalog(root, "t", "v", kind="sorted")
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 2.0, "s": "x"}])
        delete_rows_from_saved_catalog(root, "t", "t.v = 5.0")
        sql = "SELECT t.id, t.v FROM t AS t WHERE t.v = 2.0 OR t.v = 5.0"
        before = Session(load_catalog(root)).execute(sql).rows
        summary = compact_saved_catalog(root)
        assert summary["records_folded"] == 2
        assert summary["rows_reclaimed"] == len([i for i in range(30) if i % 7 == 5])
        after_catalog = load_catalog(root)
        after_table = after_catalog.get("t")
        assert not after_table.has_deletes()
        assert Session(after_catalog).execute(sql).rows == before
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert not manifest.get("mutations")
        assert manifest.get("indexes")
        assert not list((root / "t").glob("segment-*"))
        assert not list((root / "t").glob("delete-*"))


class TestMutationCli:
    def test_insert_delete_query_snapshot_compact(self, tmp_path, capsys):
        root = str(_saved_dataset(tmp_path))
        assert main(
            ["insert", "--data", root, "--table", "t",
             "--values", '[{"id": 100, "v": 2.0, "s": "x"}]']
        ) == 0
        assert "appended 1 rows" in capsys.readouterr().out
        assert main(["delete", "--data", root, "--table", "t", "--where", "t.v = 2.0"]) == 0
        assert "deleted" in capsys.readouterr().out
        assert main(
            ["query", "--data", root, "--sql", "SELECT t.id FROM t AS t WHERE t.v = 2.0"]
        ) == 0
        assert "0 rows" in capsys.readouterr().out
        assert main(
            ["query", "--data", root, "--snapshot", "1",
             "--sql", "SELECT t.id FROM t AS t WHERE t.id = 100"]
        ) == 0
        assert "1 rows" in capsys.readouterr().out
        assert main(["compact", "--data", root]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_insert_requires_exactly_one_source(self, tmp_path, capsys):
        root = str(_saved_dataset(tmp_path))
        assert main(["insert", "--data", root, "--table", "t"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_insert_from_csv(self, tmp_path, capsys):
        root = _saved_dataset(tmp_path)
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("id,v,s\n200,4.5,zz\n201,,\n")
        assert main(
            ["insert", "--data", str(root), "--table", "t", "--csv", str(csv_path)]
        ) == 0
        assert "appended 2 rows" in capsys.readouterr().out
        table = load_catalog(root).get("t")
        assert table.row(31) == {"id": 201, "v": None, "s": None}

    def test_insert_from_csv_names_the_bad_cell(self, tmp_path, capsys):
        root = _saved_dataset(tmp_path)
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("id,v,s\n200,4.5,zz\n201,abc,yy\n")
        assert main(
            ["insert", "--data", str(root), "--table", "t", "--csv", str(csv_path)]
        ) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}, line 3, column 'v'" in err
        assert "'abc' is not a valid float" in err
        assert load_catalog(root).get("t").num_rows == 30

    def test_csv_rows_share_the_import_row_rules(self, tmp_path):
        types = {"id": ColumnType.INT, "v": ColumnType.FLOAT, "s": ColumnType.STRING}
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("id,v,s\n200,4.5\n")
        assert rows_from_csv(csv_path, types) == [{"id": 200, "v": 4.5, "s": None}]
        csv_path.write_text("id,v,s\n200,4.5,zz,extra\n")
        with pytest.raises(MutationError, match="line 2: 4 cells for 3 columns"):
            rows_from_csv(csv_path, types)

    def test_table_stats_subcommand(self, tmp_path, capsys):
        root = str(_saved_dataset(tmp_path))
        assert main(["delete", "--data", root, "--table", "t", "--where", "t.id < 3"]) == 0
        capsys.readouterr()
        assert main(["table", "stats", "t", "--data", root]) == 0
        out = capsys.readouterr().out
        assert "27 rows (3 deleted)" in out
        assert "distinct" in out and "v" in out

    def test_table_stats_unknown_table(self, tmp_path, capsys):
        root = str(_saved_dataset(tmp_path))
        assert main(["table", "stats", "nope", "--data", root]) == 2
        assert "unknown table" in capsys.readouterr().err
