"""Planner-quality ablation: greedy join ordering vs. exhaustive DP ordering.

The paper's planners all order joins greedily by estimated output
cardinality, and its Figure 3c analysis attributes some losses to cost-model
misses.  TExhaustive (an extension beyond the paper) enumerates every
connected join order under the full tagged cost model; comparing it against
TCombined and TPushdown measures how much the greedy heuristic leaves on the
table at these scales, both in plan cost and in wall-clock runtime.
"""

from __future__ import annotations

import pytest

from repro.workloads.synthetic import make_cnf_query, make_dnf_query

PLANNERS = ("tpushdown", "tcombined", "texhaustive")


@pytest.mark.parametrize("planner", PLANNERS)
def test_planner_quality_synthetic_dnf(benchmark, synthetic_session, planner):
    query = make_dnf_query(num_root_clauses=2, selectivity=0.3)
    result = benchmark(synthetic_session.execute, query, planner=planner)
    assert result.row_count > 0


@pytest.mark.parametrize("planner", PLANNERS)
def test_planner_quality_synthetic_cnf(benchmark, synthetic_session, planner):
    query = make_cnf_query(num_root_clauses=2, selectivity=0.3)
    result = benchmark(synthetic_session.execute, query, planner=planner)
    assert result.row_count > 0


@pytest.mark.parametrize("planner", PLANNERS)
def test_planner_quality_job_group(benchmark, imdb_session, job_queries, planner):
    query = job_queries[1]
    result = benchmark(imdb_session.execute, query, planner=planner)
    assert result.row_count >= 0
