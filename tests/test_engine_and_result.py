"""Unit tests for execution metrics, query results and plan-compilation edge cases."""

import numpy as np
import pytest

from repro.core.tagmap import TagMapBuilder
from repro.engine.metrics import ExecContext, ExecutionMetrics, Stopwatch
from repro.engine.result import OutputColumns, QueryResult, materialize_output
from repro.physical.compile import compile_plan
from repro.plan.logical import JoinNode, ProjectNode, TableScanNode
from repro.plan.query import JoinCondition, Query
from repro.expr.builders import col
from tests.conftest import hand_built_plan


class TestExecutionMetrics:
    def test_merge_accumulates_all_fields(self):
        first = ExecutionMetrics(predicate_rows_evaluated=5, join_output_rows=2)
        second = ExecutionMetrics(predicate_rows_evaluated=3, union_output_rows=7)
        first.merge(second)
        assert first.predicate_rows_evaluated == 8
        assert first.join_output_rows == 2
        assert first.union_output_rows == 7

    def test_as_dict_round_trip(self):
        metrics = ExecutionMetrics(tuples_materialized=4)
        assert metrics.as_dict()["tuples_materialized"] == 4
        assert set(metrics.as_dict()) >= {
            "predicate_rows_evaluated",
            "join_probe_rows",
            "union_input_rows",
            "output_rows",
        }

    def test_hash_build_counts_the_side_the_kernel_builds(self):
        metrics = ExecutionMetrics()
        metrics.record_hash_build(left_rows=9, right_rows=4)  # smaller side is built
        metrics.record_hash_build(left_rows=2, right_rows=7)
        metrics.record_hash_build(left_rows=5, right_rows=5)
        assert metrics.hash_tables_built == 3
        assert (metrics.join_build_rows, metrics.join_probe_rows) == (4 + 2 + 5, 9 + 7 + 5)

    def test_stopwatch_measures_elapsed(self):
        stopwatch = Stopwatch()
        assert stopwatch.elapsed() >= 0.0


class TestQueryResult:
    def _result(self, paper_catalog):
        table = paper_catalog.get("title")
        indices = {"t": np.arange(table.num_rows, dtype=np.int64)}
        output = materialize_output({"t": table}, indices, np.array([0, 4]), [col("t", "title")])
        return QueryResult(
            planner_name="tcombined",
            output=output,
            planning_seconds=0.25,
            execution_seconds=0.5,
        )

    def test_lazy_rows_and_counts(self, paper_catalog):
        result = self._result(paper_catalog)
        assert result.row_count == 2
        assert result.rows == [("The Dark Knight",), ("The Godfather",)]
        assert result.rows is result.rows  # cached

    def test_total_seconds(self, paper_catalog):
        result = self._result(paper_catalog)
        assert result.total_seconds == pytest.approx(0.75)

    def test_to_dicts_and_sorted_rows(self, paper_catalog):
        result = self._result(paper_catalog)
        assert result.to_dicts()[0] == {"t.title": "The Dark Knight"}
        assert result.sorted_rows()[0] == ("The Dark Knight",)

    def test_repr(self, paper_catalog):
        assert "rows=2" in repr(self._result(paper_catalog))

    def test_materialize_output_star_expands_all_columns(self, paper_catalog):
        table = paper_catalog.get("title")
        indices = {"t": np.arange(table.num_rows, dtype=np.int64)}
        output = materialize_output({"t": table}, indices, np.array([1]), [])
        assert output.names == ["t.id", "t.title", "t.production_year"]
        assert output.row_count == 1

    def test_nulls_become_none_in_rows(self):
        from repro.storage.table import Table

        table = Table.from_dict("n", {"x": [1, None]})
        indices = {"n": np.arange(2, dtype=np.int64)}
        output = materialize_output({"n": table}, indices, np.array([0, 1]), [])
        result = QueryResult("x", output, 0.0, 0.0)
        assert result.rows[1] == (None,)

    def test_empty_output_columns(self):
        empty = OutputColumns(names=[], columns=[], row_count=0)
        result = QueryResult("x", empty, 0.0, 0.0)
        assert result.row_count == 0
        assert result.rows == []


class TestCompilePlanEdgeCases:
    def test_tagged_plan_requires_project_root(self, paper_catalog):
        builder = TagMapBuilder(None)
        scan = TableScanNode("t", "title")
        annotations = builder.build(ProjectNode(scan))
        with pytest.raises(ValueError, match="ProjectNode"):
            compile_plan(
                hand_built_plan("tagged", [scan], annotations), paper_catalog
            ).run(ExecContext())

    def test_traditional_plan_requires_subplans(self, paper_catalog):
        with pytest.raises(ValueError):
            compile_plan(
                hand_built_plan("traditional", []),
                paper_catalog,
            ).run(ExecContext())

    def test_tagged_plan_without_predicate_tree(self, paper_catalog):
        query = Query(
            tables={"t": "title", "mi_idx": "movie_info_idx"},
            join_conditions=[JoinCondition(col("t", "id"), col("mi_idx", "movie_id"))],
        )
        join = JoinNode(
            TableScanNode("t", "title"),
            TableScanNode("mi_idx", "movie_info_idx"),
            query.join_conditions,
        )
        plan = ProjectNode(join)
        annotations = TagMapBuilder(None).build(plan)
        output = compile_plan(
            hand_built_plan("tagged", [plan], annotations), paper_catalog
        ).run(ExecContext())
        assert output.row_count == 6

    def test_traditional_union_of_disjoint_clause_results(self, paper_session):
        """BDisj's union keeps results from clauses that do not overlap."""
        result = paper_session.execute(
            "SELECT t.title FROM title AS t JOIN movie_info_idx AS mi ON t.id = mi.movie_id "
            "WHERE (t.production_year > 2005 AND mi.info > 7.0) "
            "   OR (t.production_year < 1975 AND mi.info > 9.0)",
            planner="bdisj",
        )
        assert {row[0] for row in result.rows} == {
            "The Dark Knight",
            "Avatar",
            "The Godfather",
        }
