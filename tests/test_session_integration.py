"""Integration tests for the Session API on the paper's running example."""

import re

import pytest

from repro import Catalog, Session, Table
from repro.engine.session import PLANNERS, TAGGED_PLANNERS
from repro.expr.ast import ExprError
from repro.plan.query import TwoValuedNullError
from tests.conftest import PAPER_QUERY_MATCHES


class TestSessionBasics:
    def test_unknown_planner_rejected(self, paper_session, paper_query_sql):
        with pytest.raises(ValueError, match="unknown planner"):
            paper_session.execute(paper_query_sql, planner="nope")

    def test_sql_and_programmatic_queries_agree(self, paper_session, paper_query, paper_query_sql):
        from_sql = paper_session.execute(paper_query_sql, planner="tcombined")
        programmatic = paper_session.execute(paper_query, planner="tcombined")
        assert from_sql.row_count == programmatic.row_count == 4

    def test_explain_tagged(self, paper_session, paper_query_sql):
        rendered = paper_session.explain(paper_query_sql, planner="tpushdown")
        assert "Scan(title AS t)" in rendered
        assert "Join" in rendered

    def test_explain_rejects_what_prepare_rejects(self, paper_session, paper_query_sql):
        with pytest.raises(ValueError, match="unknown planner 'nonsense'"):
            paper_session.explain(paper_query_sql, planner="nonsense")

    def test_explain_traditional(self, paper_session, paper_query_sql):
        rendered = paper_session.explain(paper_query_sql, planner="bdisj")
        assert rendered.count("---") == 1  # two subplans separated once

    def test_result_metadata(self, paper_session, paper_query_sql):
        result = paper_session.execute(paper_query_sql, planner="tcombined")
        assert result.total_seconds >= result.execution_seconds
        assert result.column_names == ["t.title", "t.production_year", "mi_idx.info"]
        assert result.plan_description
        assert len(result.to_dicts()) == 4

    def test_select_star_returns_all_columns(self, paper_session):
        result = paper_session.execute(
            "SELECT * FROM title AS t JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id",
            planner="tcombined",
        )
        assert set(result.column_names) == {
            "t.id", "t.title", "t.production_year", "mi_idx.movie_id", "mi_idx.info",
        }
        assert result.row_count == 6

    def test_query_without_where(self, paper_session):
        result = paper_session.execute(
            "SELECT t.title FROM title AS t JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id",
            planner="bpushconj",
        )
        assert result.row_count == 6

    def test_single_table_query(self, paper_session):
        result = paper_session.execute(
            "SELECT t.title FROM title AS t WHERE t.production_year > 2000",
            planner="tcombined",
        )
        assert result.row_count == 3

    def test_single_table_disjunction(self, paper_session):
        result = paper_session.execute(
            "SELECT t.title FROM title AS t "
            "WHERE t.production_year > 2005 OR t.production_year < 1980",
            planner="tcombined",
        )
        titles = {row[0] for row in result.rows}
        assert titles == {"The Dark Knight", "Avatar", "The Godfather"}

    def test_empty_result(self, paper_session):
        result = paper_session.execute(
            "SELECT t.title FROM title AS t WHERE t.production_year > 2050",
            planner="tcombined",
        )
        assert result.row_count == 0
        assert result.rows == []


class TestAllPlannersAgree:
    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_paper_query_under_every_planner(self, paper_session, paper_query_sql, planner):
        result = paper_session.execute(paper_query_sql, planner=planner)
        titles = {row[0] for row in result.rows}
        assert titles == PAPER_QUERY_MATCHES

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_query_without_where_under_every_planner(self, paper_session, planner):
        result = paper_session.execute(
            "SELECT t.title FROM title AS t JOIN movie_info_idx AS mi_idx ON t.id = mi_idx.movie_id",
            planner=planner,
        )
        assert result.row_count == 6

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_single_table_query_under_every_planner(self, paper_session, planner):
        result = paper_session.execute(
            "SELECT t.title FROM title AS t WHERE t.production_year > 2000", planner=planner
        )
        assert {row[0] for row in result.rows} == {"The Dark Knight", "Evolution", "Avatar"}

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_null_join_keys_and_predicates_under_every_planner(self, planner):
        # Row 2's year, row 3's score and no join key match are NULL-driven misses.
        catalog = Catalog(
            [
                Table.from_dict("t", {"id": [1, 2, 3, 4], "year": [2005, None, 1990, 1970]}),
                Table.from_dict("s", {"tid": [1, 2, 3, 4], "score": [9.0, 8.5, None, 6.0]}),
            ]
        )
        sql = (
            "SELECT t.id FROM t AS t JOIN s AS s ON t.id = s.tid "
            "WHERE (t.year > 2000 AND s.score > 7.0) OR (t.year > 1980 AND s.score > 8.0)"
        )
        assert Session(catalog).execute(sql, planner=planner).rows == [(1,)]

    @pytest.mark.parametrize("planner", sorted(TAGGED_PLANNERS))
    def test_naive_tags_give_same_answers(self, paper_session, paper_query_sql, planner):
        result = paper_session.execute(paper_query_sql, planner=planner, naive_tags=True)
        titles = {row[0] for row in result.rows}
        assert titles == PAPER_QUERY_MATCHES

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    @pytest.mark.parametrize(
        "where, expected",
        [
            ("1 = 1", {1972, 1988, 1994, 2001, 2008, 2009}),
            ("1 = 2", set()),
            ("1 = 2 OR t.production_year > 2000", {2001, 2008, 2009}),
        ],
    )
    def test_predicates_over_no_column(self, paper_session, planner, where, expected):
        # A conjunct that reads no column is sized by the relation it filters.
        result = paper_session.execute(
            f"SELECT t.production_year FROM title AS t WHERE {where}", planner=planner
        )
        assert {row[0] for row in result.rows} == expected

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    @pytest.mark.parametrize(
        "where, message",
        [
            ("t.production_year > 'abc'", "int column t.production_year > literal 'abc'"),
            ("t.title > 5", "string column t.title > literal 5"),
            ("5 <= t.title", "literal 5 <= string column t.title"),
            ("t.production_year BETWEEN 'a' AND 'z'", "t.production_year >= literal 'a'"),
        ],
    )
    def test_ordering_a_string_against_a_number_is_an_expr_error(
        self, paper_session, planner, where, message
    ):
        sql = f"SELECT t.title FROM title AS t WHERE t.production_year > 1980 OR {where}"
        with pytest.raises(ExprError, match=re.escape(message)):
            paper_session.execute(sql, planner=planner)

    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_equality_across_types_is_false(self, paper_session, planner):
        sql = "SELECT t.title FROM title AS t WHERE t.production_year = 'abc' OR t.title = 5"
        assert paper_session.execute(sql, planner=planner).row_count == 0


class TestWorkCounters:
    def test_tagged_evaluates_each_predicate_once(self, paper_session, paper_query_sql):
        """Tagged execution evaluates fewer predicate rows than BDisj, which
        re-evaluates shared subexpressions per root clause."""
        tagged = paper_session.execute(paper_query_sql, planner="tpushdown")
        bdisj = paper_session.execute(paper_query_sql, planner="bdisj")
        assert tagged.metrics.predicate_rows_evaluated < bdisj.metrics.predicate_rows_evaluated

    def test_tagged_materializes_fewer_tuples_than_bdisj(self, paper_session, paper_query_sql):
        tagged = paper_session.execute(paper_query_sql, planner="tpushdown")
        bdisj = paper_session.execute(paper_query_sql, planner="bdisj")
        assert tagged.metrics.tuples_materialized < bdisj.metrics.tuples_materialized

    def test_tagged_needs_no_union(self, paper_session, paper_query_sql):
        tagged = paper_session.execute(paper_query_sql, planner="tcombined")
        bdisj = paper_session.execute(paper_query_sql, planner="bdisj")
        assert tagged.metrics.union_input_rows == 0
        assert bdisj.metrics.union_input_rows > 0

    @pytest.mark.parametrize("planner", sorted(TAGGED_PLANNERS))
    def test_tagged_join_builds_one_hash_table(self, paper_session, paper_query_sql, planner):
        # Figure 1 has three viable slice pairings; they share one hash table.
        result = paper_session.execute(paper_query_sql, planner=planner)
        assert result.metrics.hash_tables_built == 1

    def test_output_row_metric_matches_result(self, paper_session, paper_query_sql):
        result = paper_session.execute(paper_query_sql, planner="tcombined")
        assert result.metrics.output_rows == result.row_count


class TestThreeValuedIntegration:
    @pytest.fixture(scope="class")
    def null_session(self):
        catalog = Catalog(
            [
                Table.from_dict(
                    "title",
                    {
                        "id": [1, 2, 3, 4, 5, 6],
                        "title": ["A", "B", "C", "D", "E", "F"],
                        "production_year": [2010, None, 1985, 2004, None, 1995],
                    },
                ),
                Table.from_dict(
                    "movie_info_idx",
                    {
                        "movie_id": [1, 2, 3, 4, 5, 6],
                        "info": [8.4, 9.1, None, 7.2, 6.8, None],
                    },
                ),
            ]
        )
        return Session(catalog, three_valued=True)

    NULL_QUERY = (
        "SELECT t.title FROM title AS t JOIN movie_info_idx AS mi ON t.id = mi.movie_id "
        "WHERE (t.production_year > 2000 AND mi.info > 7.0) "
        "   OR (t.production_year > 1980 AND mi.info > 8.0)"
    )

    @pytest.mark.parametrize("planner", ("tcombined", "tpushdown", "bdisj"))
    def test_unknown_rows_excluded(self, null_session, planner):
        result = null_session.execute(self.NULL_QUERY, planner=planner)
        titles = {row[0] for row in result.rows}
        # Only rows whose predicate is definitely TRUE survive.
        assert titles == {"A", "D"}

    def test_is_null_predicate_end_to_end(self, null_session):
        result = null_session.execute(
            "SELECT t.title FROM title AS t WHERE t.production_year IS NULL",
            planner="tcombined",
        )
        assert {row[0] for row in result.rows} == {"B", "E"}


class TestTwoValuedPlanningRejectsNulls:
    """Two-valued tag maps have no UNKNOWN output: a NULL in a WHERE column
    would drop rows another disjunct keeps, so planning refuses it."""

    SQL = "SELECT f.id FROM f AS f JOIN d AS d ON f.id = d.fid WHERE f.a > 1 OR d.c = 2"

    @staticmethod
    def catalog(a):
        return Catalog(
            [
                Table.from_dict("f", {"id": [0, 1, 2, 3], "a": a}),
                Table.from_dict("d", {"fid": [0, 1, 2, 3], "c": [0, 1, 2, 0]}),
            ]
        )

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_null_in_a_where_column_is_a_named_error(self, planner):
        catalog = self.catalog([2.0, 3.0, None, 0.0])
        with pytest.raises(TwoValuedNullError, match=r"column f\.a holds NULLs.*NULL-free"):
            Session(catalog, three_valued=False).execute(self.SQL, planner)
        rows = Session(catalog).execute(self.SQL, planner).rows
        assert sorted(row[0] for row in rows) == [0, 1, 2]

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_null_free_columns_plan_two_valued(self, planner):
        catalog = self.catalog([2.0, 3.0, 0.5, 0.0])
        rows = Session(catalog, three_valued=False).execute(self.SQL, planner).rows
        assert sorted(row[0] for row in rows) == [0, 1, 2]
