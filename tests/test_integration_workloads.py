"""Cross-planner equivalence on the generated workloads, plus bench-harness smoke tests.

These are the heavyweight integration tests: every planner must produce the
same result set on JOB-style and synthetic disjunctive queries, with and
without tag generalization, because the execution model must never change
query semantics.
"""

import pytest

from repro.bench.figures import FIGURES, factor_query, parse_args, run_figure
from repro.bench.report import format_table
from repro.bench.timing import time_planners
from repro.workloads.job import job_query_groups
from repro.workloads.synthetic import make_cnf_query, make_dnf_query

#: JOB groups exercised in CI-style integration tests (one per template).
JOB_SAMPLE = (1, 2, 3, 4, 5, 6)


class TestJobEquivalence:
    @pytest.mark.parametrize("group", JOB_SAMPLE)
    def test_all_planners_agree_on_job_group(self, imdb_session, group):
        query = job_query_groups()[group - 1]
        reference = imdb_session.execute(query, planner="bdisj").sorted_rows()
        for planner in ("bpushconj", "tpushdown", "tpullup", "titerpush", "tpushconj", "tcombined"):
            result = imdb_session.execute(query, planner=planner)
            assert result.sorted_rows() == reference, (query.name, planner)

    @pytest.mark.parametrize("group", (1, 6))
    def test_factored_queries_agree_with_originals(self, imdb_session, group):
        query = job_query_groups()[group - 1]
        factored = factor_query(query)
        original_rows = imdb_session.execute(query, planner="tcombined").sorted_rows()
        factored_rows = imdb_session.execute(factored, planner="bpushconj").sorted_rows()
        assert original_rows == factored_rows

    @pytest.mark.parametrize("group", (1, 4))
    def test_naive_tags_agree_on_job_group(self, imdb_session, group):
        query = job_query_groups()[group - 1]
        generalized = imdb_session.execute(query, planner="tpushdown").sorted_rows()
        naive = imdb_session.execute(query, planner="tpushdown", naive_tags=True).sorted_rows()
        assert generalized == naive


class TestSyntheticEquivalence:
    @pytest.mark.parametrize("clauses", (2, 3))
    def test_dnf_planners_agree(self, synthetic_session, clauses):
        query = make_dnf_query(num_root_clauses=clauses, selectivity=0.3)
        reference = synthetic_session.execute(query, planner="bdisj")
        tagged = synthetic_session.execute(query, planner="tcombined")
        assert reference.row_count == tagged.row_count
        assert reference.sorted_rows() == tagged.sorted_rows()

    @pytest.mark.parametrize("clauses", (2, 3))
    def test_cnf_planners_agree(self, synthetic_session, clauses):
        query = make_cnf_query(num_root_clauses=clauses, selectivity=0.3)
        reference = synthetic_session.execute(query, planner="bpushconj")
        tagged = synthetic_session.execute(query, planner="tcombined")
        assert reference.row_count == tagged.row_count

    def test_outer_factor_query_agrees(self, synthetic_session):
        query = make_cnf_query(num_root_clauses=2, selectivity=0.3, outer_factor=0.5)
        reference = synthetic_session.execute(query, planner="bpushconj")
        tagged = synthetic_session.execute(query, planner="tcombined")
        assert reference.row_count == tagged.row_count

    def test_tagged_join_work_shrinks_versus_traditional_cnf(self, synthetic_session):
        """The headline mechanism of Figure 4b: selective tag maps mean the
        tagged join materializes fewer output tuples than the traditional
        join-then-filter pipeline."""
        query = make_cnf_query(num_root_clauses=2, selectivity=0.2)
        tagged = synthetic_session.execute(query, planner="tpushdown")
        traditional = synthetic_session.execute(query, planner="bpushconj")
        assert tagged.metrics.join_output_rows < traditional.metrics.join_output_rows
        assert tagged.row_count == traditional.row_count


class TestBenchHarness:
    def test_run_job_figure_smoke(self):
        args = parse_args(["fig3a", "--groups", "1", "3", "--scale", "0.015", "--repetitions", "2"])
        table = run_figure("fig3a", args)
        assert table.startswith("Figure 3a: bdisj vs tcombined, 2 passes (mean of medians ")
        assert "/2 unresolved)" in table.splitlines()[0]
        assert len(table.splitlines()) == 2 + 2 + 2
        assert "total ratio [q1-q3]" in table

    def test_overhead_variant_compares_identical_plans(self):
        figure = FIGURES["fig3d"]
        assert (figure.baseline, figure.tagged, figure.factored) == (
            "bpushconj", ("tpushconj",), True
        )

    def test_unknown_figure_is_not_in_the_table(self):
        with pytest.raises(KeyError):
            run_figure("fig9z", parse_args(["fig3a"]))

    def test_selectivity_sweep_smoke(self):
        args = parse_args(["fig4a", "--table-size", "300", "--repetitions", "1"])
        table = run_figure("fig4a", args)
        assert table.startswith("Figure 4a: bdisj vs tcombined, 1 passes")
        assert len(table.splitlines()) == 2 + 2 + len(FIGURES["fig4a"].points)

    def test_time_planners_collects_every_pass(self, paper_catalog, paper_query):
        times = time_planners(paper_catalog, paper_query, ("tcombined",), 2)
        assert times.row_count == 4
        assert len(times.totals["tcombined"]) == 2
        assert all(total > 0 for total in times.totals["tcombined"])

    def test_time_planners_rejects_zero_passes(self, paper_catalog, paper_query):
        with pytest.raises(ValueError, match="passes must be at least 1, got 0"):
            time_planners(paper_catalog, paper_query, ("tcombined",), 0)

    def test_report_helpers(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", 3]], title="T")
        assert "T" in table and "2.500" in table
