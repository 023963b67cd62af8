"""Tests for the TExhaustive (DP join ordering) planner extension."""

from __future__ import annotations

import pytest

from repro.core.planner.base import PlannerContext
from repro.core.planner.exhaustive import TExhaustivePlanner
from repro.core.planner.pushdown import TPushdownPlanner
from repro.engine.session import PLANNERS
from repro.plan.logical import collect_joins
from repro.workloads.job import job_query
from repro.workloads.synthetic import make_cnf_query, make_dnf_query

from tests.conftest import PAPER_QUERY_MATCHES


class TestRegistration:
    def test_registered_as_texhaustive(self):
        assert PLANNERS["texhaustive"] is TExhaustivePlanner


class TestPlanShape:
    def test_paper_query_plan_and_result(self, paper_catalog, paper_query, paper_session):
        context = PlannerContext.for_query(paper_query, paper_catalog)
        result = TExhaustivePlanner(context).plan()
        assert result.planner_name == "texhaustive"
        joins = collect_joins(result.plan)
        assert len(joins) == 1

        executed = paper_session.execute(paper_query, planner="texhaustive")
        titles = {
            row[executed.column_names.index("t.title")] for row in executed.rows
        }
        assert titles == PAPER_QUERY_MATCHES

    def test_three_table_synthetic_query(self, synthetic_catalog, synthetic_session):
        query = make_dnf_query(num_root_clauses=2, selectivity=0.3)
        context = PlannerContext.for_query(query, synthetic_catalog)
        result = TExhaustivePlanner(context).plan()
        joins = collect_joins(result.plan)
        assert len(joins) == 2
        assert result.plan.aliases >= {"T0", "T1", "T2"}

        exhaustive = synthetic_session.execute(query, planner="texhaustive")
        greedy = synthetic_session.execute(query, planner="tpushdown")
        assert exhaustive.sorted_rows() == greedy.sorted_rows()

    def test_cost_never_worse_than_greedy_pushdown(self, synthetic_catalog):
        for query in (
            make_dnf_query(num_root_clauses=2, selectivity=0.3),
            make_cnf_query(num_root_clauses=2, selectivity=0.3),
            make_dnf_query(num_root_clauses=3, selectivity=0.5),
        ):
            context = PlannerContext.for_query(query, synthetic_catalog)
            exhaustive_cost = TExhaustivePlanner(context).plan().estimated_cost
            greedy_cost = TPushdownPlanner(context).plan().estimated_cost
            assert exhaustive_cost <= greedy_cost * 1.001

    def test_job_style_query(self, imdb_catalog, imdb_session):
        query = job_query(1)
        exhaustive = imdb_session.execute(query, planner="texhaustive")
        reference = imdb_session.execute(query, planner="tcombined")
        assert exhaustive.sorted_rows() == reference.sorted_rows()

    def test_too_many_tables_rejected(self, paper_catalog):
        from repro.plan.query import Query

        wide_query = Query(tables={f"t{index}": "title" for index in range(11)})
        context = PlannerContext.for_query(wide_query, paper_catalog)
        with pytest.raises(ValueError, match="refuses"):
            TExhaustivePlanner(context).plan()

    def test_proper_subsets_enumerates_half_the_lattice(self):
        subsets = list(TExhaustivePlanner._proper_subsets(frozenset({"a", "b", "c"})))
        assert frozenset({"a"}) in subsets
        assert frozenset({"a", "b"}) in subsets
        # Complements are implied, so sets not containing the anchor are absent.
        assert frozenset({"b", "c"}) not in subsets
        assert all("a" in subset for subset in subsets)


class TestSessionIntegration:
    def test_session_accepts_texhaustive(self, paper_session, paper_query_sql):
        result = paper_session.execute(paper_query_sql, planner="texhaustive")
        assert result.planner_name == "texhaustive"
        assert result.row_count == len(PAPER_QUERY_MATCHES)

    def test_explain_texhaustive(self, paper_session, paper_query_sql):
        rendered = paper_session.explain(paper_query_sql, planner="texhaustive")
        assert "Join" in rendered and "Scan" in rendered
