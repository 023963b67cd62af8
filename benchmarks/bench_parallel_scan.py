"""Morsel-driven parallel scan+filter+join throughput vs. serial execution.

The workload is the regime intra-query parallelism targets: one large fact
table (the partitioned scan) joined to a small dimension table, with a
disjunctive filter over both.  The build side is small, so duplicating it per
morsel is negligible and per-morsel work is dominated by the partitioned
scan+filter+probe — the NumPy kernels release the GIL, which is what lets
worker threads overlap.

Asserted here: at identical partitioning (so the per-morsel work is the same
and only concurrency differs) 4 workers return byte-identical rows and equal
work counters.  The thread-vs-serial wall-clock *ratio* is recorded, not
gated, by the end-to-end suite (``engine.morsel2_speedup_x`` on
``fact_scan``; see ROADMAP item 3 for what it reads).

Not tied to a paper figure — this benchmarks the repo's parallel execution
driver, not the paper's planners (see docs/benchmarks.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.session import Session
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

#: Rows in the fact (partitioned) and dimension (replicated build) tables.
FACT_ROWS = 120_000
DIM_ROWS = 2_000

#: Worker threads and table partitions used by the parallel runs.
WORKERS = 4
PARTITIONS = 4

SQL = (
    "SELECT f.id FROM fact AS f JOIN dim AS d ON f.dim_id = d.id "
    "WHERE (f.a < 0.3 AND d.w < 0.6) OR (f.b > 0.7 AND d.w > 0.2)"
)


def _catalog() -> Catalog:
    rng = np.random.default_rng(7)
    fact = Table(
        "fact",
        [
            Column("id", np.arange(FACT_ROWS), ctype=ColumnType.INT),
            Column("dim_id", rng.integers(0, DIM_ROWS, size=FACT_ROWS), ctype=ColumnType.INT),
            Column("a", rng.random(FACT_ROWS), ctype=ColumnType.FLOAT),
            Column("b", rng.random(FACT_ROWS), ctype=ColumnType.FLOAT),
        ],
    )
    dim = Table(
        "dim",
        [
            Column("id", np.arange(DIM_ROWS), ctype=ColumnType.INT),
            Column("w", rng.random(DIM_ROWS), ctype=ColumnType.FLOAT),
        ],
    )
    return Catalog([fact, dim])


@pytest.fixture(scope="module")
def scan_session() -> Session:
    return Session(_catalog(), stats_sample_size=10_000)


@pytest.fixture(scope="module")
def prepared(scan_session):
    return scan_session.prepare(SQL, planner="tcombined")


def test_parallel_results_byte_identical_to_serial(scan_session, prepared):
    """4-worker output must equal 1-worker output row for row."""
    serial = scan_session.execute_prepared(prepared, parallelism=1, partitions=PARTITIONS)
    parallel = scan_session.execute_prepared(prepared, parallelism=WORKERS, partitions=PARTITIONS)
    unpartitioned = scan_session.execute_prepared(prepared, parallelism=1, partitions=1)
    assert parallel.rows == serial.rows
    assert sorted(parallel.rows) == sorted(unpartitioned.rows)
    assert parallel.metrics.as_dict() == serial.metrics.as_dict()
    assert parallel.metrics.morsels_executed == PARTITIONS


@pytest.mark.parametrize("parallelism", (1, WORKERS))
def test_parallel_scan_wall_clock(benchmark, scan_session, prepared, parallelism):
    """Wall-clock of the scan-heavy query at 1 vs 4 workers (4 partitions)."""
    result = benchmark(
        scan_session.execute_prepared,
        prepared,
        parallelism=parallelism,
        partitions=PARTITIONS,
    )
    assert result.row_count > 0
