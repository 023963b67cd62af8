"""Integration tests for the Session API on the paper's running example."""

import re

import pytest

from repro import Catalog, Session, Table
from repro.engine.session import PLANNERS, TAGGED_PLANNERS
from repro.expr.ast import ExprError
from repro.service import QueryService
from repro.sql import parse_query
from repro.testing.oracle import evaluate_oracle
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

    def test_unknown_table_is_named_with_the_known_ones(self, paper_session):
        with pytest.raises(KeyError, match=r"unknown table 'nosuch'; known tables: .*title"):
            paper_session.prepare("SELECT x.a FROM nosuch AS x WHERE x.a > 1")

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
        return Session(catalog)

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


def unknown_outputs(prepared) -> int:
    """How many filter entries of a tagged plan have an UNKNOWN output: none
    under two-valued tag maps."""
    return sum(
        entry.unk_tag is not None
        for tag_map in prepared.annotations.filter_maps.values()
        for entry in tag_map.entries.values()
    )


class TestTagLogicIsDerived:
    """Planning is two-valued exactly when no WHERE predicate can be UNKNOWN
    on the snapshot the plan executes on.  Two-valued tag maps have no
    UNKNOWN output, so a row on which a predicate is UNKNOWN would leave the
    plan at that filter even where another disjunct makes the WHERE clause
    TRUE: a NULL in a predicate column, or a NULL literal, must plan
    three-valued."""

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
    @pytest.mark.parametrize(
        "a", [[2.0, 3.0, None, 0.0], [2.0, 3.0, 0.5, 0.0]], ids=["null", "no-null"]
    )
    def test_logic_follows_the_data_and_rows_match_the_oracle(self, planner, a):
        catalog = self.catalog(a)
        session = Session(catalog)
        prepared = session.prepare(self.SQL, planner)
        assert prepared.query.can_be_unknown(prepared.snapshot) == (None in a)
        if planner == "tpushdown":
            assert (unknown_outputs(prepared) > 0) == (None in a)
        rows = session.execute_prepared(prepared).sorted_rows()
        assert rows == evaluate_oracle(catalog, parse_query(self.SQL)) == [(0,), (1,), (2,)]

    NULL_LITERAL_SQL = (
        "SELECT t.a FROM t AS t JOIN u AS u ON t.k = u.k WHERE t.a = NULL OR u.b = 1",
        "SELECT t.a FROM t AS t JOIN u AS u ON t.k = u.k WHERE t.a <> NULL OR u.b = 1",
        "SELECT t.a FROM t AS t JOIN u AS u ON t.k = u.k "
        "WHERE t.a BETWEEN NULL AND 25 OR u.b = 1",
    )

    @pytest.mark.parametrize("planner", PLANNERS)
    @pytest.mark.parametrize("sql", NULL_LITERAL_SQL, ids=["eq", "ne", "between"])
    def test_a_null_literal_plans_three_valued_on_null_free_tables(self, planner, sql):
        catalog = Catalog(
            [
                Table.from_dict("t", {"k": [1, 2, 3, 4], "a": [10, 20, 30, 40]}),
                Table.from_dict("u", {"k": [1, 2, 3, 4], "b": [1, 1, 1, 0]}),
            ]
        )
        query = parse_query(sql)
        assert query.can_be_unknown(catalog)
        rows = Session(catalog).execute(query, planner).sorted_rows()
        assert rows == evaluate_oracle(catalog, query) == [(10,), (20,), (30,)]

    def commit_a_null(self, catalog) -> None:
        """Add a row whose ``f.a`` is NULL and which the ``d.c = 2``
        disjunct selects."""
        batch = catalog.begin_mutation()
        batch.insert("f", [{"id": 4, "a": None}])
        batch.insert("d", [{"fid": 4, "c": 2}])
        batch.commit()

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_a_commit_adding_a_null_after_prepare(self, planner):
        catalog = self.catalog([2.0, 3.0, 0.5, 0.0])
        session = Session(catalog)
        query = parse_query(self.SQL)
        before = session.prepare(query, planner)
        assert not query.can_be_unknown(before.snapshot)
        self.commit_a_null(catalog)
        # The old plan reads its own snapshot, which holds no NULL.
        assert session.execute_prepared(before).sorted_rows() == (
            evaluate_oracle(before.snapshot, query)
        ) == [(0,), (1,), (2,)]
        # A prepare after the commit derives three-valued logic.
        after = session.prepare(query, planner)
        assert query.can_be_unknown(after.snapshot)
        if planner == "tpushdown":
            assert unknown_outputs(before) == 0 < unknown_outputs(after)
        assert session.execute_prepared(after).sorted_rows() == (
            evaluate_oracle(catalog, query)
        ) == [(0,), (1,), (2,), (4,)]

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_a_service_read_after_the_commit_re_plans(self, planner):
        catalog = self.catalog([2.0, 3.0, 0.5, 0.0])
        service = QueryService(catalog)
        try:
            service.execute(self.SQL, planner)
            assert service.execute(self.SQL, planner).cache_hit
            self.commit_a_null(catalog)
            result = service.execute(self.SQL, planner)
            assert not result.cache_hit
            assert result.sorted_rows() == evaluate_oracle(catalog, parse_query(self.SQL))
            assert result.sorted_rows() == [(0,), (1,), (2,), (4,)]
        finally:
            service.close()
