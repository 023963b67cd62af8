"""Execution work is counted, deterministic, and pinned.

The companion of ``test_planning_work.py`` for the operators: one pass of the
33 JOB-style queries through one :class:`~repro.Session` per planner, with
every scalar work counter of ``metrics.as_dict()`` and ``iostats.as_dict()``
summed over the pass.  A change to how relations hold their rows (bitmaps,
compaction, slice encodings) must leave every figure here equal: predicate
rows, join build/probe/output rows, materialized tuples, slices, hash tables
and simulated page traffic all count work the plan asks for, not how the
operators lay it out.

A second pass runs the same queries in four morsels with feedback collection
on, and also sums each operator's actual rows in and out: it pins the work of
partitioned execution (build sides rebuilt per morsel, the page cache shared
across morsels) and the per-operator actuals EXPLAIN ANALYZE reports.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Session
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

EXPECTED = {
    "tcombined": {
        "predicate_rows_evaluated": 140_889,
        "predicate_evaluations": 155,
        "residual_rows_evaluated": 0,
        "join_build_rows": 12_811,
        "join_probe_rows": 152_191,
        "join_output_rows": 12_889,
        "tuples_materialized": 12_889,
        "union_input_rows": 0,
        "union_output_rows": 0,
        "operators_executed": 372,
        "slices_created": 335,
        "hash_tables_built": 66,
        "output_rows": 3_557,
        "morsels_executed": 33,
        "pages_pruned": 0,
        "partitions_skipped": 0,
        "shards_executed": 0,
        "clause_rows_evaluated": 140_889,
        "pages_read": 726,
        "pages_hit": 38,
        "sequential_scans": 154,
        "selective_reads": 133,
        "values_read": 305_891,
    },
    "bdisj": {
        "predicate_rows_evaluated": 413_337,
        "predicate_evaluations": 225,
        "residual_rows_evaluated": 0,
        "join_build_rows": 13_333,
        "join_probe_rows": 237_324,
        "join_output_rows": 9_308,
        "tuples_materialized": 12_865,
        "union_input_rows": 4_105,
        "union_output_rows": 3_557,
        "operators_executed": 616,
        "slices_created": 342,
        "hash_tables_built": 142,
        "output_rows": 3_557,
        "morsels_executed": 33,
        "pages_pruned": 0,
        "partitions_skipped": 0,
        "shards_executed": 0,
        "clause_rows_evaluated": 413_337,
        "pages_read": 1_206,
        "pages_hit": 240,
        "sequential_scans": 327,
        "selective_reads": 182,
        "values_read": 663_994,
    },
}


#: The partitioned pass (``partitions=4``, ``collect_feedback=True``); the
#: ``actual_rows_*`` entries sum ``metrics.operator_actuals`` over every query.
EXPECTED_PARTITIONED = {
    "tcombined": {
        "predicate_rows_evaluated": 350_664,
        "predicate_evaluations": 561,
        "residual_rows_evaluated": 0,
        "join_build_rows": 18_834,
        "join_probe_rows": 380_831,
        "join_output_rows": 20_914,
        "tuples_materialized": 20_914,
        "union_input_rows": 0,
        "union_output_rows": 0,
        "operators_executed": 1_488,
        "slices_created": 1_212,
        "hash_tables_built": 256,
        "output_rows": 3_557,
        "morsels_executed": 132,
        "pages_pruned": 0,
        "partitions_skipped": 0,
        "shards_executed": 0,
        "clause_rows_evaluated": 350_664,
        "pages_read": 1_765,
        "pages_hit": 643,
        "sequential_scans": 536,
        "selective_reads": 537,
        "values_read": 750_329,
        "actual_rows_in": 1_353_079,
        "actual_rows_out": 779_036,
    },
    "bdisj": {
        "predicate_rows_evaluated": 1_257_204,
        "predicate_evaluations": 900,
        "residual_rows_evaluated": 0,
        "join_build_rows": 23_938,
        "join_probe_rows": 461_756,
        "join_output_rows": 18_101,
        "tuples_materialized": 21_658,
        "union_input_rows": 4_105,
        "union_output_rows": 3_557,
        "operators_executed": 2_445,
        "slices_created": 1_288,
        "hash_tables_built": 535,
        "output_rows": 3_557,
        "morsels_executed": 132,
        "pages_pruned": 0,
        "partitions_skipped": 0,
        "shards_executed": 0,
        "clause_rows_evaluated": 1_257_204,
        "pages_read": 3_766,
        "pages_hit": 1_038,
        "sequential_scans": 1_219,
        "selective_reads": 751,
        "values_read": 1_742_898,
        "actual_rows_in": 3_058_306,
        "actual_rows_out": 1_768_211,
    },
}


@pytest.fixture(scope="module")
def job_catalog():
    return generate_imdb_catalog(scale=0.05, seed=7)


@pytest.mark.parametrize("planner", sorted(EXPECTED))
def test_job_pass_execution_work_is_pinned(job_catalog, planner):
    session = Session(job_catalog)
    total: Counter[str] = Counter()
    for query in job_query_groups():
        result = session.execute(query, planner)
        total.update(result.metrics.as_dict())
        total.update(result.iostats.as_dict())
    assert dict(total) == EXPECTED[planner]


@pytest.mark.parametrize("planner", sorted(EXPECTED_PARTITIONED))
def test_partitioned_job_pass_execution_work_is_pinned(job_catalog, planner):
    session = Session(job_catalog, partitions=4, collect_feedback=True)
    total: Counter[str] = Counter()
    for query in job_query_groups():
        result = session.execute(query, planner)
        total.update(result.metrics.as_dict())
        total.update(result.iostats.as_dict())
        for rows_in, rows_out in result.metrics.operator_actuals.values():
            total["actual_rows_in"] += rows_in
            total["actual_rows_out"] += rows_out
    assert dict(total) == EXPECTED_PARTITIONED[planner]


def test_traced_calls_count_operator_invocations(job_catalog):
    # Every operator of a compiled tree runs once per morsel, and its traced
    # ``calls`` counts exactly those runs.
    session = Session(job_catalog, partitions=4, trace=True)
    for planner in sorted(EXPECTED_PARTITIONED):
        for query in job_query_groups()[:8]:
            result = session.execute(query, planner)
            morsels = result.metrics.morsels_executed
            timings = result.trace.operator_timings()
            assert timings and morsels == 4
            assert {timing["calls"] for timing in timings.values()} == {morsels}
