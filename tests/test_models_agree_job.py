"""Cross-model agreement on the JOB-style workload.

The per-module tests exercise each execution model in isolation; these
integration tests assert that, on the workload the paper actually evaluates
(the combined JOB-style disjunctive query groups), every execution model and
every planner extension returns exactly the same rows — and that the work
counters move in the direction the paper's analysis predicts.
"""

from __future__ import annotations

import pytest

from repro.workloads.job import common_subexpression_keys, job_query

GROUPS = (1, 2, 5, 7)


@pytest.fixture(scope="module")
def reference_results(imdb_session):
    """TCombined results for the tested groups (shared across tests)."""
    return {
        group: imdb_session.execute(job_query(group), planner="tcombined")
        for group in GROUPS
    }


class TestModelAgreement:
    @pytest.mark.parametrize("group", GROUPS)
    def test_texhaustive_matches_tagged(self, imdb_session, reference_results, group):
        exhaustive = imdb_session.execute(job_query(group), planner="texhaustive")
        assert exhaustive.sorted_rows() == reference_results[group].sorted_rows()

    @pytest.mark.parametrize("group", GROUPS)
    def test_bdisj_matches_tagged(self, imdb_session, reference_results, group):
        bdisj = imdb_session.execute(job_query(group), planner="bdisj")
        assert bdisj.sorted_rows() == reference_results[group].sorted_rows()

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize(
        "planner", ("tpushdown", "tpullup", "titerpush", "tpushconj", "bpushconj")
    )
    def test_other_planners_match_tagged(self, imdb_session, reference_results, planner, group):
        result = imdb_session.execute(job_query(group), planner=planner)
        assert result.sorted_rows() == reference_results[group].sorted_rows()


class TestWorkCounterDirections:
    """The paper's qualitative claims, checked on a real JOB-style group."""

    @pytest.mark.parametrize("group", GROUPS)
    def test_tagged_builds_one_hash_table_per_join(self, imdb_session, reference_results, group):
        # Section 2.5.3: all slice pairings of a join probe one shared hash table.
        query = job_query(group)
        tagged = reference_results[group]
        assert tagged.metrics.hash_tables_built == len(query.join_conditions)
        bdisj = imdb_session.execute(query, planner="bdisj")
        assert bdisj.metrics.hash_tables_built >= tagged.metrics.hash_tables_built

    @pytest.mark.parametrize("group", GROUPS[:2])
    def test_bdisj_needs_union_tagged_does_not(self, imdb_session, reference_results, group):
        bdisj = imdb_session.execute(job_query(group), planner="bdisj")
        tagged = reference_results[group]
        assert tagged.metrics.union_input_rows == 0
        if bdisj.row_count > 0:
            assert bdisj.metrics.union_input_rows >= bdisj.row_count

    @pytest.mark.parametrize("group", GROUPS[:2])
    def test_bdisj_reevaluates_shared_subexpressions(self, imdb_session, reference_results, group):
        query = job_query(group)
        shared = common_subexpression_keys(query)
        bdisj = imdb_session.execute(query, planner="bdisj")
        tagged = reference_results[group]
        if shared:
            assert (
                bdisj.metrics.predicate_rows_evaluated
                >= tagged.metrics.predicate_rows_evaluated
            )
