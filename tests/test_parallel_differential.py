"""Differential tests: parallel execution vs. serial vs. the oracle.

The acceptance bar for the morsel driver is strict determinism:

* for every generated workload query and every execution model, results at
  ``parallelism ∈ {1, 2, 4}`` and ``partitions ∈ {1, 3, 7}`` match the naive
  oracle;
* at a fixed partition count, results are **byte-identical** (same rows in
  the same order) at every worker count — scheduling must never reorder the
  partition-order merge;
* the plan choice is identical at every setting, because parallelism is an
  execution-time knob that planning never sees.
"""

from __future__ import annotations

import pytest

from repro.engine.session import Session
from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog
from repro.testing.oracle import evaluate_oracle
from repro.testing.querygen import RandomQueryConfig, generate_random_query

#: One planner per execution model, plus the DP search planner.
PLANNERS = ("tcombined", "texhaustive", "bdisj", "bpushconj")

PARALLELISM_LEVELS = (1, 2, 4)
PARTITION_COUNTS = (1, 3, 7)

QUERY_SEEDS = (11, 23, 47)


@pytest.fixture(scope="module")
def catalog():
    return generate_random_catalog(
        RandomCatalogConfig(seed=5, num_dimensions=2, fact_rows=160, dimension_rows=120)
    )


@pytest.fixture(scope="module")
def session(catalog):
    return Session(catalog, stats_sample_size=200)


@pytest.fixture(scope="module", params=QUERY_SEEDS)
def workload(request, catalog, session):
    """One generated query with its oracle answer and serial reference runs."""
    query = generate_random_query(catalog, RandomQueryConfig(seed=request.param))
    expected = evaluate_oracle(catalog, query)
    references = {
        planner: session.execute(query, planner=planner) for planner in PLANNERS
    }
    return query, expected, references


@pytest.mark.parametrize("planner", PLANNERS)
def test_parallel_matches_oracle_and_serial(workload, session, planner):
    query, expected, references = workload
    reference = references[planner]
    for partitions in PARTITION_COUNTS:
        per_worker_rows = {}
        for parallelism in PARALLELISM_LEVELS:
            result = session.execute(
                query, planner=planner, parallelism=parallelism, partitions=partitions
            )
            # Same answer as the oracle and as plain serial execution.
            assert result.sorted_rows() == expected, (
                f"{planner} at parallelism={parallelism}, partitions={partitions} "
                f"disagrees with the oracle"
            )
            assert result.row_count == reference.row_count
            # Identical plan: parallelism is invisible to the planner.
            assert result.plan_description == reference.plan_description
            per_worker_rows[parallelism] = result.rows
        # Byte-identical output at any worker count for a fixed partitioning.
        baseline = per_worker_rows[1]
        for parallelism, rows in per_worker_rows.items():
            assert rows == baseline, (
                f"{planner} output at parallelism={parallelism} differs from "
                f"serial at partitions={partitions}"
            )


def test_partitions_one_identical_to_legacy_serial(workload, session):
    """partitions=1 must be bit-for-bit the unpartitioned code path."""
    query, _expected, references = workload
    for planner in PLANNERS:
        result = session.execute(query, planner=planner, parallelism=1, partitions=1)
        assert result.rows == references[planner].rows


def test_parallelism_defaults_from_session(catalog):
    """Session-level knobs apply without per-call overrides."""
    parallel_session = Session(catalog, stats_sample_size=200, parallelism=4, partitions=7)
    serial_session = Session(catalog, stats_sample_size=200)
    query = generate_random_query(catalog, RandomQueryConfig(seed=3))
    parallel = parallel_session.execute(query, planner="tcombined")
    serial = serial_session.execute(query, planner="tcombined")
    assert parallel.metrics.morsels_executed == 7
    assert parallel.sorted_rows() == serial.sorted_rows()


def test_query_service_parallelism_does_not_mutate_session(catalog):
    """Service-level knobs apply per call; the wrapped session keeps its own."""
    from repro.service import QueryService

    session = Session(catalog, stats_sample_size=200)
    query = generate_random_query(catalog, RandomQueryConfig(seed=3))
    with QueryService(session, parallelism=4, partitions=7) as service:
        served = service.execute(query, planner="tcombined")
        assert session.options.parallelism == 1 and session.options.partitions is None
        direct = session.execute(query, planner="tcombined")
        assert served.metrics.morsels_executed == 7
        assert direct.metrics.morsels_executed == 1
        assert served.sorted_rows() == direct.sorted_rows()


def test_output_shaping_runs_once_after_merge(catalog):
    """ORDER BY / LIMIT / aggregates see the merged output, not the morsels."""
    session = Session(catalog, stats_sample_size=200)
    sql = (
        "SELECT f.id FROM F AS f JOIN D1 AS d1 ON f.id = d1.fid "
        "WHERE f.A1 < 0.8 OR d1.A1 < 0.4 ORDER BY f.id DESC LIMIT 10"
    )
    serial = session.execute(sql, planner="tcombined")
    parallel = session.execute(sql, planner="tcombined", parallelism=4, partitions=7)
    assert parallel.rows == serial.rows
    assert parallel.row_count <= 10

    count_sql = (
        "SELECT COUNT(*) FROM F AS f JOIN D1 AS d1 ON f.id = d1.fid "
        "WHERE f.A1 < 0.8 OR d1.A1 < 0.4"
    )
    serial_count = session.execute(count_sql, planner="bdisj")
    parallel_count = session.execute(count_sql, planner="bdisj", parallelism=2, partitions=3)
    assert parallel_count.rows == serial_count.rows
