"""Execution work is counted, deterministic, and pinned.

The companion of ``test_planning_work.py`` for the operators: one pass of the
33 JOB-style queries through one :class:`~repro.Session` per planner, with
every scalar work counter of ``metrics.as_dict()`` and ``iostats.as_dict()``
summed over the pass.  A change to how relations hold their rows (bitmaps,
compaction, slice encodings) must leave every figure here equal: predicate
rows, join build/probe/output rows, materialized tuples, slices, hash tables
and simulated page traffic all count work the plan asks for, not how the
operators lay it out.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Session
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

EXPECTED = {
    "tcombined": {
        "predicate_rows_evaluated": 141_777,
        "predicate_evaluations": 155,
        "residual_rows_evaluated": 0,
        "join_build_rows": 12_811,
        "join_probe_rows": 152_191,
        "join_output_rows": 12_800,
        "tuples_materialized": 12_800,
        "union_input_rows": 0,
        "union_output_rows": 0,
        "operators_executed": 372,
        "slices_created": 342,
        "hash_tables_built": 66,
        "output_rows": 3_557,
        "morsels_executed": 33,
        "pages_pruned": 0,
        "partitions_skipped": 0,
        "shards_executed": 0,
        "clause_rows_evaluated": 141_777,
        "pages_read": 724,
        "pages_hit": 38,
        "sequential_scans": 157,
        "selective_reads": 130,
        "values_read": 306_779,
    },
    "bdisj": {
        "predicate_rows_evaluated": 446_279,
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
        "clause_rows_evaluated": 446_279,
        "pages_read": 1_218,
        "pages_hit": 228,
        "sequential_scans": 342,
        "selective_reads": 167,
        "values_read": 696_936,
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
