"""Tests for the extended SQL surface: DISTINCT, aggregates, GROUP BY, ORDER BY, LIMIT."""

from __future__ import annotations

import pytest

from repro import AggregateFunction, parse_query
from repro.engine.session import PLANNERS
from repro.sql.parser import ParseError


class TestParsing:
    def test_select_distinct(self):
        query = parse_query("SELECT DISTINCT t.year FROM title AS t")
        assert query.distinct
        assert [column.key() for column in query.select] == ["t.year"]

    def test_count_star(self):
        query = parse_query("SELECT COUNT(*) FROM title AS t")
        assert len(query.aggregates) == 1
        assert query.aggregates[0].function is AggregateFunction.COUNT
        assert query.aggregates[0].argument is None
        assert query.select == []

    def test_aggregates_with_group_by(self):
        query = parse_query(
            "SELECT t.year, COUNT(*), MIN(t.title), AVG(t.score) FROM title AS t "
            "GROUP BY t.year"
        )
        assert [column.key() for column in query.group_by] == ["t.year"]
        assert [aggregate.label() for aggregate in query.aggregates] == [
            "COUNT(*)",
            "MIN(t.title)",
            "AVG(t.score)",
        ]
        # Physical select covers group key and aggregate arguments.
        assert [column.key() for column in query.select] == ["t.year", "t.title", "t.score"]

    def test_count_distinct_column(self):
        query = parse_query("SELECT COUNT(DISTINCT t.year) FROM title AS t")
        assert query.aggregates[0].distinct
        assert query.aggregates[0].label() == "COUNT(DISTINCT t.year)"

    def test_order_by_and_limit(self):
        query = parse_query(
            "SELECT t.title, t.year FROM title AS t ORDER BY t.year DESC, t.title LIMIT 10"
        )
        assert [(item.key, item.descending) for item in query.order_by] == [
            ("t.year", True),
            ("t.title", False),
        ]
        assert query.limit == 10

    def test_order_by_aggregate(self):
        query = parse_query(
            "SELECT t.year, COUNT(*) FROM title AS t GROUP BY t.year "
            "ORDER BY COUNT(*) DESC LIMIT 5"
        )
        assert query.order_by[0].key == "COUNT(*)"
        assert query.order_by[0].descending

    def test_full_query_with_where_and_shaping(self):
        query = parse_query(
            "SELECT t.year, COUNT(*) FROM title AS t "
            "JOIN movie_info_idx AS mi ON t.id = mi.movie_id "
            "WHERE (t.year > 2000 AND mi.info > 7.0) OR (t.year > 1980 AND mi.info > 8.0) "
            "GROUP BY t.year ORDER BY t.year ASC LIMIT 3"
        )
        assert query.predicate is not None
        assert query.limit == 3
        assert query.has_output_shaping

    def test_select_column_not_in_group_by_rejected(self):
        with pytest.raises(ParseError, match="GROUP BY"):
            parse_query("SELECT t.title, COUNT(*) FROM title AS t GROUP BY t.year")

    def test_order_by_column_not_selected_rejected(self):
        with pytest.raises(ParseError, match="ORDER BY"):
            parse_query("SELECT t.title FROM title AS t ORDER BY t.year")

    def test_order_by_unselected_aggregate_rejected(self):
        with pytest.raises(ParseError, match="ORDER BY"):
            parse_query(
                "SELECT t.year, COUNT(*) FROM title AS t GROUP BY t.year ORDER BY SUM(t.id)"
            )

    def test_order_by_allowed_with_select_star(self):
        query = parse_query("SELECT * FROM title AS t ORDER BY t.year LIMIT 2")
        assert query.order_by[0].key == "t.year"

    def test_sum_requires_column(self):
        with pytest.raises(ParseError):
            parse_query("SELECT SUM(*) FROM title AS t")

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError, match="integer"):
            parse_query("SELECT * FROM title AS t LIMIT 2.5")

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(ValueError):
            parse_query("SELECT t.year FROM title AS t GROUP BY t.year")


class TestExecution:
    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_count_star_matches_plain_row_count(self, paper_session, paper_query_sql, planner):
        plain = paper_session.execute(paper_query_sql, planner=planner)
        counted = paper_session.execute(
            "SELECT COUNT(*) FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
            "   OR (t.production_year > 1980 AND mi_idx.info > 8.0)",
            planner=planner,
        )
        assert counted.column_names == ["COUNT(*)"]
        assert counted.rows[0][0] == plain.row_count

    def test_group_by_year_counts(self, paper_session):
        result = paper_session.execute(
            "SELECT t.production_year, COUNT(*) FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
            "   OR (t.production_year > 1980 AND mi_idx.info > 8.0) "
            "GROUP BY t.production_year ORDER BY t.production_year"
        )
        assert result.column_names == ["t.production_year", "COUNT(*)"]
        assert result.rows == [(1994, 2), (2008, 1), (2009, 1)]

    def test_min_max_aggregates(self, paper_session):
        result = paper_session.execute(
            "SELECT MIN(t.production_year), MAX(mi_idx.info) FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
            "   OR (t.production_year > 1980 AND mi_idx.info > 8.0)"
        )
        assert result.rows == [(1994, 9.3)]

    def test_order_by_limit_top_k(self, paper_session):
        result = paper_session.execute(
            "SELECT t.title, mi_idx.info FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "ORDER BY mi_idx.info DESC LIMIT 2"
        )
        assert [row[0] for row in result.rows] == ["The Shawshank Redemption", "The Godfather"]

    def test_distinct_removes_duplicates(self, paper_session):
        with_duplicates = paper_session.execute(
            "SELECT t.production_year FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id"
        )
        deduplicated = paper_session.execute(
            "SELECT DISTINCT t.production_year FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id"
        )
        assert deduplicated.row_count < with_duplicates.row_count
        assert deduplicated.row_count == len(
            {row[0] for row in with_duplicates.rows}
        )

    def test_shaping_consistent_across_planners(self, paper_session):
        sql = (
            "SELECT t.production_year, COUNT(*) FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
            "   OR (t.production_year > 1980 AND mi_idx.info > 8.0) "
            "GROUP BY t.production_year ORDER BY COUNT(*) DESC, t.production_year"
        )
        results = {
            planner: paper_session.execute(sql, planner=planner).rows
            for planner in ("tcombined", "bdisj", "bpushconj")
        }
        reference = results["tcombined"]
        assert all(rows == reference for rows in results.values())

    def test_count_distinct_execution(self, paper_session):
        result = paper_session.execute(
            "SELECT COUNT(DISTINCT t.production_year) FROM title AS t "
            "JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id "
            "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
            "   OR (t.production_year > 1980 AND mi_idx.info > 8.0)"
        )
        assert result.rows == [(3,)]
