"""Tests for on-disk catalog persistence (repro.storage.disk)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Catalog, Column, ColumnType, Session, Table
from repro.storage.disk import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CatalogFormatError,
    export_table_csv,
    import_table_csv,
    load_catalog,
    save_catalog,
)
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog, make_dnf_query

from tests.conftest import PAPER_QUERY_MATCHES, PAPER_QUERY_SQL


class TestSaveLoadRoundtrip:
    def test_roundtrip_preserves_values_and_nulls(self, tmp_path):
        table = Table(
            "movies",
            [
                Column("id", [1, 2, 3]),
                Column("title", ["Alpha", None, "Gamma"]),
                Column("score", [9.1, 8.0, None]),
                Column("recent", [True, False, True]),
            ],
        )
        save_catalog(Catalog([table]), tmp_path)
        loaded = load_catalog(tmp_path)

        reloaded = loaded.get("movies")
        assert reloaded.num_rows == 3
        assert reloaded.column_names == ["id", "title", "score", "recent"]
        assert reloaded.column("id").ctype is ColumnType.INT
        assert reloaded.column("title").ctype is ColumnType.STRING
        assert reloaded.column("score").ctype is ColumnType.FLOAT
        assert reloaded.column("recent").ctype is ColumnType.BOOL
        assert reloaded.rows() == table.rows()

    def test_roundtrip_of_paper_catalog_still_answers_query(self, tmp_path, paper_catalog):
        save_catalog(paper_catalog, tmp_path)
        session = Session(load_catalog(tmp_path))
        result = session.execute(PAPER_QUERY_SQL)
        assert {row[0] for row in result.rows} == PAPER_QUERY_MATCHES

    def test_roundtrip_of_synthetic_catalog(self, tmp_path):
        catalog = generate_synthetic_catalog(SyntheticConfig(table_size=300, seed=2))
        save_catalog(catalog, tmp_path / "synthetic")
        loaded = load_catalog(tmp_path / "synthetic")
        original = Session(catalog).execute(make_dnf_query(selectivity=0.3))
        reloaded = Session(loaded).execute(make_dnf_query(selectivity=0.3))
        assert reloaded.sorted_rows() == original.sorted_rows()

    def test_manifest_contents(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert {entry["name"] for entry in manifest["tables"]} == {
            "title",
            "movie_info_idx",
        }

    def test_save_returns_root_path(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path / "nested" / "dir")
        assert (root / MANIFEST_NAME).exists()

    def test_no_pickle_files_written(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path)
        for npy_file in root.rglob("*.npy"):
            np.load(npy_file, allow_pickle=False)  # must not raise


class TestStatsMetadataRoundtrip:
    """Format v2: per-column statistics persist and seed the loaded catalog."""

    def test_manifest_records_column_stats(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        title_columns = {
            entry["name"]: entry
            for table in manifest["tables"]
            if table["name"] == "title"
            for entry in table["columns"]
        }
        year = title_columns["production_year"]
        assert year["distinct_count"] == 6
        assert year["min_value"] == 1972 and year["max_value"] == 2009
        assert year["null_count"] == 0

    def test_loaded_catalog_plans_without_recomputing_stats(self, tmp_path, paper_catalog):
        from repro.stats.table_stats import collect_table_stats

        root = save_catalog(paper_catalog, tmp_path)
        loaded = load_catalog(root)
        for table in loaded:
            for column in table.columns():
                # The caches were seeded from the manifest, so stats
                # collection never re-runs np.unique / min / max.
                assert column._distinct_count is not None
                assert column._min_max_known
        original = {t.name: collect_table_stats(paper_catalog.get(t.name)) for t in loaded}
        for table in loaded:
            stats = collect_table_stats(table)
            for name, column_stats in stats.columns.items():
                assert column_stats == original[table.name].columns[name]

    def test_all_null_column_bounds_round_trip(self, tmp_path):
        table = Table("t", [Column("x", [None, None]), Column("y", [1, 2])])
        root = save_catalog(Catalog([table]), tmp_path)
        loaded = load_catalog(root).get("t")
        assert loaded.column("x")._min_max_known
        assert loaded.column("x").min_max() is None
        assert loaded.column("x").distinct_count() == 0

    def test_version_1_manifest_still_loads(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["format_version"] = 1
        for table in manifest["tables"]:
            table["columns"] = [
                {"name": entry["name"], "type": entry["type"]}
                for entry in table["columns"]
            ]
        manifest.pop("indexes", None)
        manifest.pop("zone_maps", None)
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        loaded = load_catalog(root)
        title = loaded.get("title")
        assert title.column("production_year")._distinct_count is None  # not seeded
        assert title.column("production_year").distinct_count() == 6  # lazy fallback
        session = Session(loaded)
        result = session.execute(PAPER_QUERY_SQL)
        assert {row[0] for row in result.rows} == PAPER_QUERY_MATCHES


class TestAccessSidecarRoundtrip:
    """Format v2: secondary indexes and zone maps persist as sidecar files."""

    def _catalog(self):
        n = 256
        table = Table(
            "events",
            [
                Column("id", list(range(n)), page_size=16),
                Column("ts", list(range(n)), page_size=16),
                Column(
                    "cat", [f"c{i % 5}" for i in range(n)], page_size=16
                ),
            ],
        )
        return Catalog([table])

    def test_index_sidecars_round_trip(self, tmp_path):
        from repro.access.manager import ensure_access_manager

        catalog = self._catalog()
        manager = ensure_access_manager(catalog)
        manager.create_index("events", "cat", kind="bitmap")
        manager.create_index("events", "ts", kind="sorted")
        manager.zone_map("events", "ts")  # materialize one zone map too
        root = save_catalog(catalog, tmp_path)
        assert (root / "events" / "cat.bitmap.index.npz").exists()
        assert (root / "events" / "ts.sorted.index.npz").exists()
        assert (root / "events" / "ts.zonemap.npz").exists()

        loaded = load_catalog(root)
        loaded_manager = loaded.access_manager
        assert loaded_manager is not None
        defs = {(d.table, d.column): d.kind for d in loaded_manager.list_indexes()}
        assert defs == {("events", "cat"): "bitmap", ("events", "ts"): "sorted"}
        built_before = loaded_manager.stats.indexes_built
        sql = "SELECT e.id FROM events AS e WHERE e.cat = 'c3' AND e.ts < 40"
        pruned = Session(loaded).execute(sql)
        plain = Session(loaded, access_paths=False).execute(sql)
        assert pruned.rows == plain.rows
        assert pruned.metrics.pages_pruned > 0
        # The loaded sidecars served the query; nothing was rebuilt.
        assert loaded_manager.stats.indexes_built == built_before

    def test_missing_sidecar_raises(self, tmp_path):
        from repro.access.manager import ensure_access_manager

        catalog = self._catalog()
        ensure_access_manager(catalog).create_index("events", "cat", kind="bitmap")
        root = save_catalog(catalog, tmp_path)
        (root / "events" / "cat.bitmap.index.npz").unlink()
        with pytest.raises(CatalogFormatError, match="sidecar"):
            load_catalog(root)

    def test_cli_index_helpers_round_trip(self, tmp_path):
        from repro.storage.disk import (
            add_index_to_saved_catalog,
            drop_index_from_saved_catalog,
            list_saved_indexes,
        )

        root = save_catalog(self._catalog(), tmp_path)
        definition = add_index_to_saved_catalog(root, "events", "cat", kind="auto")
        assert definition.kind == "bitmap"
        assert list_saved_indexes(root) == [
            {
                "table": "events",
                "column": "cat",
                "kind": "bitmap",
                "file": "cat.bitmap.index.npz",
                "rows": 256,
            }
        ]
        assert load_catalog(root).access_manager.has_index("events", "cat")
        drop_index_from_saved_catalog(root, "events", "cat")
        assert list_saved_indexes(root) == []
        assert not (root / "events" / "cat.bitmap.index.npz").exists()
        with pytest.raises(KeyError):
            drop_index_from_saved_catalog(root, "events", "cat")


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CatalogFormatError, match="catalog.json"):
            load_catalog(tmp_path)

    def test_wrong_format_version(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format_version": 99, "tables": []}))
        with pytest.raises(CatalogFormatError, match="version"):
            load_catalog(tmp_path)

    def test_missing_column_file(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path)
        (root / "title" / "id.values.npy").unlink()
        with pytest.raises(CatalogFormatError, match="missing column files"):
            load_catalog(root)

    def test_row_count_mismatch_detected(self, tmp_path, paper_catalog):
        root = save_catalog(paper_catalog, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["tables"][0]["num_rows"] = 99
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CatalogFormatError, match="rows"):
            load_catalog(root)


class TestCsv:
    def test_csv_roundtrip(self, tmp_path):
        table = Table(
            "people",
            [
                Column("id", [1, 2, 3]),
                Column("name", ["Ada", None, "Grace"]),
                Column("score", [1.5, 2.0, None]),
            ],
        )
        path = tmp_path / "people.csv"
        export_table_csv(table, path)
        loaded = import_table_csv("people", path)
        assert loaded.rows() == table.rows()

    def test_csv_type_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,ratio,label\n1,0.5,yes\n2,0.25,no\n")
        table = import_table_csv("data", path)
        assert table.column("id").ctype is ColumnType.INT
        assert table.column("ratio").ctype is ColumnType.FLOAT
        assert table.column("label").ctype is ColumnType.STRING

    def test_csv_explicit_types(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,flag\n1,true\n2,false\n")
        table = import_table_csv("data", path, types={"flag": ColumnType.BOOL})
        assert table.column("flag").ctype is ColumnType.BOOL
        assert [row["flag"] for row in table.rows()] == [True, False]

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CatalogFormatError, match="empty"):
            import_table_csv("empty", path)

    def test_short_row_is_null_padded(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,x\n1,2\n3\n")
        table = import_table_csv("data", path)
        assert table.rows() == [{"id": 1, "x": 2}, {"id": 3, "x": None}]

    def test_long_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,x\n1,2\n3,4,5\n")
        with pytest.raises(CatalogFormatError, match="line 3: 3 cells for 2 columns"):
            import_table_csv("data", path)

    def test_cell_of_the_wrong_type_is_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,x\n1,2\n3,abc\n")
        with pytest.raises(CatalogFormatError) as raised:
            import_table_csv("data", path, types={"x": ColumnType.INT})
        assert str(raised.value) == (
            f"{path}, line 3, column 'x': 'abc' is not a valid int"
        )
