"""Unit tests for tables and catalogs."""

import numpy as np
import pytest

from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.iostats import IOStats
from repro.storage.table import Table


@pytest.fixture
def movies() -> Table:
    return Table.from_dict(
        "movies",
        {
            "id": [1, 2, 3],
            "title": ["Alpha", "Beta", None],
            "year": [2001, 1999, 2010],
        },
    )


class TestTableConstruction:
    def test_from_dict(self, movies):
        assert movies.num_rows == 3
        assert movies.column_names == ["id", "title", "year"]

    def test_from_rows(self):
        table = Table.from_rows("t", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.num_rows == 2
        assert table.column("b").values_list() == ["x", "y"]

    def test_from_rows_empty_raises(self):
        with pytest.raises(ValueError):
            Table.from_rows("t", [])

    def test_mismatched_column_lengths_raise(self):
        with pytest.raises(ValueError, match="differing lengths"):
            Table("t", [Column("a", [1, 2]), Column("b", [1])])

    def test_duplicate_column_names_raise(self):
        with pytest.raises(ValueError, match="duplicate column"):
            Table("t", [Column("a", [1]), Column("a", [2])])

    def test_no_columns_raises(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_len_and_contains(self, movies):
        assert len(movies) == 3
        assert "title" in movies
        assert "nope" not in movies


class TestTableAccess:
    def test_column_lookup_error_message(self, movies):
        with pytest.raises(KeyError, match="available"):
            movies.column("missing")

    def test_row_materialization_with_nulls(self, movies):
        assert movies.row(2) == {"id": 3, "title": None, "year": 2010}

    def test_rows_subset(self, movies):
        rows = movies.rows([0, 2])
        assert [row["id"] for row in rows] == [1, 3]

    def test_rows_all(self, movies):
        assert len(movies.rows()) == 3

    def test_read_column_at_selected_rows(self, movies):
        values, _ = movies.read_column_at("year", np.array([0, 2]), iostats=IOStats())
        assert list(values) == [2001, 2010]

    def test_read_column_at(self, movies):
        values, _ = movies.read_column_at("id", np.array([2, 0]), iostats=IOStats())
        assert list(values) == [3, 1]

    def test_repr(self, movies):
        assert "movies" in repr(movies)


class TestCatalog:
    def test_add_and_get(self, movies):
        catalog = Catalog([movies])
        assert catalog.get("movies") is movies

    def test_duplicate_add_raises(self, movies):
        catalog = Catalog([movies])
        with pytest.raises(ValueError):
            catalog.add(movies)

    def test_replace_overwrites(self, movies):
        catalog = Catalog([movies])
        replacement = Table.from_dict("movies", {"id": [9]})
        catalog.replace(replacement)
        assert catalog.get("movies").num_rows == 1

    def test_missing_table_error_lists_known(self, movies):
        catalog = Catalog([movies])
        with pytest.raises(KeyError, match="movies"):
            catalog.get("unknown")

    def test_iteration_and_len(self, movies):
        other = Table.from_dict("other", {"x": [1, 2]})
        catalog = Catalog([movies, other])
        assert len(catalog) == 2
        assert {table.name for table in catalog} == {"movies", "other"}

    def test_contains(self, movies):
        catalog = Catalog([movies])
        assert "movies" in catalog

    def test_total_rows(self, movies):
        other = Table.from_dict("other", {"x": [1, 2]})
        assert Catalog([movies, other]).total_rows() == 5

    def test_table_names(self, movies):
        assert Catalog([movies]).table_names == ["movies"]
