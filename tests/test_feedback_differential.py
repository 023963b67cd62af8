"""Feedback determinism differential suite (satellite of the optimizer PR).

Runs the same skewed workload with the feedback loop on and off, across
parallelism {1, 4} x partitions {1, 3}, and asserts:

* **byte-identical results** — every execution returns exactly the same rows
  (queries carry a total ORDER BY so row order is plan-independent), whether
  or not feedback re-planned the query mid-stream;
* **identical re-planned plans** — the plan the feedback loop converges to
  is the same at every parallelism/partition setting, because observed
  selectivities are ratios of accumulated counts and both counts scale
  together when morsels re-execute a build side.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, QueryService, Session, Table

#: Executions per setting: cold, post-replan, warm (converged).
RUNS = 3

#: The morsel-execution grid the determinism claim is made over.
SETTINGS = [(1, 1), (1, 3), (4, 1), (4, 3)]

PLANNERS = ("tpushconj", "tcombined", "bdisj")


def feedback_catalog(rows: int = 2500, seed: int = 11) -> Catalog:
    """FK-joined tables whose cross-table clauses defeat a-priori estimation."""
    rng = np.random.default_rng(seed)
    a = Table.from_dict(
        "A",
        {
            "id": np.arange(rows),
            "u": rng.uniform(0.0, 0.02, rows),
            "w": rng.uniform(0.98, 1.0, rows),
        },
    )
    b = Table.from_dict(
        "B",
        {
            "bid": np.arange(rows),
            "fid": rng.integers(0, rows, rows),
            "v": rng.uniform(0.5, 1.0, rows),
            "x": rng.uniform(0.0, 0.5, rows),
        },
    )
    return Catalog([a, b])


#: CNF with skewed disjunctive clauses; the ORDER BY is total (b.bid is
#: unique), so equal row lists mean byte-identical results across plans.
SKEWED_SQL = (
    "SELECT a.id, b.bid FROM A AS a JOIN B AS b ON a.id = b.fid "
    "WHERE (a.u < b.v OR a.u < b.x) AND (a.w < b.x OR a.w < b.v) "
    "ORDER BY a.id, b.bid"
)

#: A second shape with a pushable single-table predicate, so the suite also
#: covers feedback collection below a partitioned join.
PUSHDOWN_SQL = (
    "SELECT a.id, b.bid FROM A AS a JOIN B AS b ON a.id = b.fid "
    "WHERE b.v > 0.6 AND (a.w < b.x OR a.u < b.v) "
    "ORDER BY a.id, b.bid"
)

QUERIES = (SKEWED_SQL, PUSHDOWN_SQL)


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return feedback_catalog()


def _run_series(catalog, planner, feedback, parallelism, partitions):
    """Execute every query RUNS times; returns (rows per run, final plans)."""
    session = Session(catalog, parallelism=parallelism, partitions=partitions)
    with QueryService(session, feedback=feedback) as service:
        results = {
            sql: [service.execute(sql, planner=planner) for _ in range(RUNS)]
            for sql in QUERIES
        }
        rows = {
            sql: [(item.column_names, item.rows) for item in items]
            for sql, items in results.items()
        }
        plans = {sql: items[-1].plan_description for sql, items in results.items()}
        replans = service.feedback_store.stats.replans
    return rows, plans, replans


@pytest.mark.parametrize("planner", PLANNERS)
def test_feedback_on_off_byte_identical_across_grid(catalog, planner):
    replanned_plans_by_setting = {}
    total_replans = 0
    for parallelism, partitions in SETTINGS:
        off_rows, _off_plans, off_replans = _run_series(
            catalog, planner, False, parallelism, partitions
        )
        on_rows, on_plans, on_replans = _run_series(
            catalog, planner, True, parallelism, partitions
        )
        assert off_replans == 0
        total_replans += on_replans
        for sql in QUERIES:
            for run_index in range(RUNS):
                assert on_rows[sql][run_index] == off_rows[sql][run_index], (
                    planner,
                    (parallelism, partitions),
                    sql,
                    run_index,
                )
        replanned_plans_by_setting[(parallelism, partitions)] = on_plans

    # The plan feedback converges to must not depend on the execution grid.
    reference = replanned_plans_by_setting[SETTINGS[0]]
    for setting, plans in replanned_plans_by_setting.items():
        assert plans == reference, (planner, setting)

    # The suite must actually exercise re-planning, not merely cache hits.
    assert total_replans > 0, planner


def test_feedback_replans_exactly_once_then_converges(catalog):
    session = Session(catalog)
    with QueryService(session, feedback=True) as service:
        for _ in range(5):
            service.execute(SKEWED_SQL, planner="tpushconj")
        assert service.feedback_store.stats.replans == 1
        assert service.execute(SKEWED_SQL, planner="tpushconj").cache_hit
