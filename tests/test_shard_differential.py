"""Differential suite: sharded execution vs. serial vs. the oracle.

The acceptance bar for the scatter–gather engine is strict determinism:

* for every planner, at ``shards ∈ {1, 2, 4}`` × ``parallelism ∈ {1, 4}`` ×
  ``partitions ∈ {1, 3}``, with and without access paths, the output is
  **byte-identical** (same rows in the same order) to serial execution at
  the same partition count — and matches the naive oracle;
* merged execution metrics are identical to serial except for the
  coordinator-only ``shards_executed`` counter;
* merged IO statistics agree on the work done (``values_read``,
  ``sequential_scans``, ``selective_reads`` and total page accesses);
  only the hit/miss split may differ, because workers run private caches;
* ``shards=1`` is exactly the in-process path: no worker pool is created;
* aggregation and (ORDER BY …) LIMIT pushdown never change the answer,
  whether or not they engage;
* a worker-side query error leaves the pool usable for the next query.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.access.manager import ensure_access_manager
from repro.engine import shard
from repro.engine.metrics import ExecContext, ExecOptions
from repro.engine.parallel import execute_plan
from repro.engine.partial_agg import aggregation_pushdown_supported
from repro.engine.postprocess import OutputShapingError
from repro.engine.session import Session
from repro.engine.shard import ShardExecutionError, ShardSpec, shard_pool
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table
from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog
from repro.testing.differential import DEFAULT_PLANNERS
from repro.testing.oracle import evaluate_oracle
from repro.testing.querygen import RandomQueryConfig, generate_random_query

SHARD_COUNTS = (1, 2, 4)
PARALLELISM_LEVELS = (1, 4)
PARTITION_COUNTS = (1, 3)

QUERY_SEED = 23


def _strip_shards(metrics) -> dict:
    """Metrics dict without the coordinator-only shard counter."""
    counters = metrics.as_dict()
    counters.pop("shards_executed", None)
    return counters


def _catalog(with_indexes: bool):
    catalog = generate_random_catalog(
        RandomCatalogConfig(seed=5, num_dimensions=2, fact_rows=160, dimension_rows=120)
    )
    if with_indexes:
        manager = ensure_access_manager(catalog)
        manager.create_index("F", "id", kind="sorted")
        manager.create_index("F", "category", kind="bitmap")
        manager.create_index("D1", "fid", kind="sorted")
    return catalog


@pytest.fixture(scope="module")
def catalogs():
    return {True: _catalog(with_indexes=True), False: _catalog(with_indexes=False)}


@pytest.fixture(scope="module")
def sessions(catalogs):
    return {
        indexed: Session(catalogs[indexed], stats_sample_size=200, access_paths=indexed)
        for indexed in (True, False)
    }


@pytest.fixture(scope="module")
def workload(catalogs):
    query = generate_random_query(catalogs[False], RandomQueryConfig(seed=QUERY_SEED))
    expected = evaluate_oracle(catalogs[False], query)
    return query, expected


@pytest.mark.parametrize("indexed", (False, True), ids=("plain", "indexed"))
@pytest.mark.parametrize("planner", DEFAULT_PLANNERS)
def test_sharded_byte_identical_to_serial(sessions, workload, planner, indexed):
    query, expected = workload
    session = sessions[indexed]
    for partitions in PARTITION_COUNTS:
        serial = session.execute(
            query, planner=planner, parallelism=1, partitions=partitions
        )
        assert serial.sorted_rows() == expected, (planner, partitions)
        serial_metrics = _strip_shards(serial.metrics)
        for parallelism in PARALLELISM_LEVELS:
            for shards in SHARD_COUNTS:
                result = session.execute(
                    query,
                    planner=planner,
                    parallelism=parallelism,
                    partitions=partitions,
                    shards=shards,
                )
                label = (planner, indexed, partitions, parallelism, shards)
                # Byte-identical rows, identical plan choice.
                assert result.rows == serial.rows, label
                assert result.plan_description == serial.plan_description, label
                # Identical work counters (the shard counter is
                # coordinator-only and excluded by construction).
                assert _strip_shards(result.metrics) == serial_metrics, label
                # Identical IO *work*; only the hit/miss split may move,
                # because worker processes run private page caches.
                assert result.iostats.values_read == serial.iostats.values_read, label
                assert (
                    result.iostats.sequential_scans == serial.iostats.sequential_scans
                ), label
                assert (
                    result.iostats.selective_reads == serial.iostats.selective_reads
                ), label
                assert (
                    result.iostats.pages_read + result.iostats.pages_hit
                    == serial.iostats.pages_read + serial.iostats.pages_hit
                ), label


def test_shards_one_never_creates_a_pool(catalogs):
    """``shards=1`` must stay the exact in-process path."""
    shard.shutdown_shard_pools()
    session = Session(catalogs[False], stats_sample_size=200, shards=1)
    query = generate_random_query(catalogs[False], RandomQueryConfig(seed=3))
    result = session.execute(query, planner="tcombined", parallelism=2, partitions=4)
    assert result.metrics.shards_executed == 0
    assert shard._SHARD_POOLS == {}


def test_shard_counters_and_merge_accounting(sessions, workload):
    query, _expected = workload
    session = sessions[False]
    result = session.execute(
        query, planner="tcombined", parallelism=1, partitions=4, shards=2
    )
    assert result.metrics.shards_executed == 2
    assert result.metrics.morsels_executed == 4


AGGREGATE_SQLS = (
    # Exactly mergeable: COUNT, SUM/AVG over int, MIN/MAX over any type.
    (
        "SELECT f.category, COUNT(*), SUM(f.id), AVG(f.id), MIN(f.A1), MAX(f.category) "
        "FROM F AS f JOIN D1 AS d1 ON f.id = d1.fid "
        "WHERE (f.A1 > 0.2 AND d1.A2 < 0.9) OR (f.A2 > 0.7) GROUP BY f.category",
        True,
    ),
    # Float SUM is not exactly mergeable: stays on the gather path.
    (
        "SELECT f.category, SUM(f.A1) FROM F AS f "
        "WHERE (f.A1 > 0.2) OR (f.A3 < 0.4) GROUP BY f.category",
        False,
    ),
    # DISTINCT aggregates are never pushed.
    ("SELECT COUNT(DISTINCT f.category) FROM F AS f WHERE (f.A1 > 0.1) OR (f.A2 > 0.5)", False),
    # Global (no GROUP BY) aggregate over a near-empty match set.
    (
        "SELECT COUNT(*), SUM(f.id), MIN(f.A2) FROM F AS f "
        "WHERE (f.A1 > 0.999) OR (f.A2 > 0.9995)",
        True,
    ),
    # Zero matches anywhere: COUNT = 0 / NULL extremes on every path.
    ("SELECT COUNT(*), MAX(f.id) FROM F AS f WHERE (f.A1 > 2.0) OR (f.A2 > 2.0)", True),
    # Shaping after the fold: ORDER BY over the aggregated rows.
    (
        "SELECT f.category, COUNT(*) FROM F AS f WHERE (f.A1 > 0.3) OR (f.A2 > 0.3) "
        "GROUP BY f.category ORDER BY COUNT(*) DESC LIMIT 2",
        True,
    ),
)


@pytest.mark.parametrize("planner", ("tcombined", "bdisj"))
def test_aggregate_pushdown_byte_identical(sessions, catalogs, planner):
    session = sessions[False]
    for sql, expect_push in AGGREGATE_SQLS:
        prepared = session.prepare(sql, planner="tcombined")
        assert (
            aggregation_pushdown_supported(prepared.query, catalogs[False]) == expect_push
        ), sql
        serial = session.execute(sql, planner=planner, parallelism=1, partitions=4)
        for shards in (2, 4):
            sharded = session.execute(
                sql, planner=planner, parallelism=1, partitions=4, shards=shards
            )
            assert sharded.rows == serial.rows, (planner, shards, sql)


def test_aggregate_pushdown_engages(sessions, catalogs):
    """The supported aggregate really is folded on the shards."""
    session = sessions[False]
    sql = AGGREGATE_SQLS[0][0]
    prepared = session.prepare(sql, planner="tcombined")
    context = ExecContext()
    execute_plan(prepared, prepared.snapshot, context, ExecOptions(partitions=4, shards=2))
    assert context.aggregates_prefolded

    # The unsupported float SUM must not set the flag.
    context = ExecContext()
    prepared = session.prepare(AGGREGATE_SQLS[1][0], planner="tcombined")
    execute_plan(prepared, prepared.snapshot, context, ExecOptions(partitions=4, shards=2))
    assert not context.aggregates_prefolded


@pytest.mark.parametrize("shards", (2, 3))
def test_extreme_pushdown_orders_nan_when_a_shard_has_no_input(shards):
    """Regression: a shard with no non-NULL MIN/MAX input used to hand back an
    object placeholder; the combined column then became object, where
    ``np.unique`` no longer orders a non-NULL NaN (last, as in serial)."""
    nan = float("nan")
    values = [None] * 6 + [nan, 1.0, 2.0, 3.0, 0.5, 2.5]
    table = Table(
        "t",
        [
            Column("id", list(range(12)), ctype=ColumnType.INT),
            Column("v", values, ctype=ColumnType.FLOAT),
        ],
    )
    session = Session(Catalog([table]), stats_sample_size=12)
    sql = "SELECT MIN(t.v), MAX(t.v) FROM t AS t WHERE (t.id >= 0) OR (t.id < 0)"
    serial = session.execute(sql, planner="tcombined", partitions=shards)
    sharded = session.execute(sql, planner="tcombined", partitions=shards, shards=shards)
    assert sharded.metrics.shards_executed == shards
    assert repr(sharded.rows) == repr(serial.rows) == "[(0.5, nan)]"
    for (got, _nulls), (want, _) in zip(sharded.output.columns, serial.output.columns):
        assert got.dtype == want.dtype == np.float64


def test_limit_pushdown_byte_identical(sessions):
    session = sessions[False]
    sql = (
        "SELECT f.id, f.category FROM F AS f "
        "WHERE (f.A1 > 0.2) OR (f.A2 > 0.6) LIMIT 7"
    )
    serial = session.execute(sql, planner="tcombined", parallelism=1, partitions=4)
    sharded = session.execute(
        sql, planner="tcombined", parallelism=1, partitions=4, shards=2
    )
    assert sharded.rows == serial.rows
    assert sharded.row_count == serial.row_count == 7

    # With ORDER BY each shard returns its top-k candidates: same answer.
    ordered = (
        "SELECT f.id FROM F AS f WHERE (f.A1 > 0.2) OR (f.A2 > 0.6) "
        "ORDER BY f.id DESC LIMIT 5"
    )
    serial = session.execute(ordered, planner="tcombined", parallelism=1, partitions=4)
    sharded = session.execute(
        ordered, planner="tcombined", parallelism=1, partitions=4, shards=2
    )
    assert sharded.rows == serial.rows


@pytest.fixture(scope="module")
def topk_session():
    """240 rows; ``k`` (6 values) and ``a`` (11 values) repeat and are ~10 % NULL."""
    rng = np.random.default_rng(17)
    rows = 240

    def with_nulls(values):
        return [None if rng.random() < 0.1 else value for value in values]

    table = Table(
        "T",
        [
            Column("id", np.arange(rows)),
            Column("k", with_nulls(rng.integers(0, 6, rows).tolist())),
            Column("a", with_nulls(rng.random(rows).round(1).tolist())),
            Column("x", rng.random(rows)),
            Column("y", rng.random(rows)),
        ],
    )
    return Session(Catalog([table]), stats_sample_size=200)


_TOPK_FROM = "FROM T AS t WHERE (t.x > 0.2 AND t.y < 0.9) OR (t.y > 0.6)"

TOPK_CLAUSES = (
    "ORDER BY t.k LIMIT 7",  # duplicates straddle the boundary
    "ORDER BY t.k DESC LIMIT 7",
    "ORDER BY t.a DESC, t.id LIMIT 9",  # two keys, float primary
    "ORDER BY t.k, t.a DESC, t.id DESC LIMIT 45",
    "ORDER BY t.a, t.id LIMIT 200",  # past the non-NULL keys: NULL rows returned
    "ORDER BY t.id DESC LIMIT 1",
)


@pytest.mark.parametrize("planner", DEFAULT_PLANNERS)
def test_order_by_limit_pushdown_byte_identical(topk_session, planner):
    for clause in TOPK_CLAUSES:
        sql = f"SELECT t.id, t.k, t.a {_TOPK_FROM} {clause}"
        serial = topk_session.execute(sql, planner=planner, parallelism=1, partitions=4)
        assert 0 < serial.row_count
        for shards in SHARD_COUNTS:
            sharded = topk_session.execute(
                sql, planner=planner, parallelism=1, partitions=4, shards=shards
            )
            assert sharded.rows == serial.rows, (planner, shards, clause)


def test_order_by_limit_pushdown_engages(topk_session, monkeypatch):
    """Each worker ships fewer rows than its block produced."""
    shipped = []
    run = shard.ShardPool.run

    def recording_run(self, *args, **kwargs):
        results = run(self, *args, **kwargs)
        shipped.append([payload[1].row_count for payload, *_rest in results])
        return results

    monkeypatch.setattr(shard.ShardPool, "run", recording_run)
    select = f"SELECT t.id, t.k, t.a {_TOPK_FROM}"
    for clause in ("", "ORDER BY t.k LIMIT 7", "ORDER BY t.a DESC, t.id LIMIT 9"):
        sql = f"{select} {clause}"
        topk_session.execute(sql, planner="tcombined", parallelism=1, partitions=4, shards=2)
    block_rows, *candidate_rows = shipped
    for candidates in candidate_rows:
        assert all(0 < sent < block for sent, block in zip(candidates, block_rows))


@pytest.mark.parametrize("shards", (1, 2))
@pytest.mark.parametrize("function", ("SUM", "AVG"))
def test_sum_over_a_string_column_is_a_named_error(sessions, shards, function):
    """Not a ``TypeError`` from inside ``np.add.at``."""
    sql = (
        f"SELECT {function}(f.category) FROM F AS f WHERE (f.A1 > 0.2) OR (f.A2 > 0.6)"
    )
    with pytest.raises(OutputShapingError, match=rf"{function}\(f\.category\).*numeric"):
        sessions[False].execute(
            sql, planner="tcombined", parallelism=1, partitions=4, shards=shards
        )


@pytest.mark.parametrize("shards", (1, 2))
def test_unknown_order_by_key_is_the_coordinators_error(sessions, shards):
    """Workers pre-filtering for ORDER BY ... LIMIT leave the error to ``order_by``."""
    sql = "SELECT * FROM F AS f WHERE (f.A1 > 0.2) OR (f.A2 > 0.6) ORDER BY f.nope LIMIT 3"
    with pytest.raises(OutputShapingError, match="'f.nope' not found"):
        sessions[False].execute(
            sql, planner="tcombined", parallelism=1, partitions=4, shards=shards
        )


def test_worker_error_leaves_pool_usable(sessions, workload):
    """A query error inside a worker must not poison the pool."""
    query, _expected = workload
    session = sessions[False]
    good = session.execute(
        query, planner="tcombined", parallelism=1, partitions=4, shards=2
    )

    pool = shard_pool(2)
    catalog = session.catalog
    prepared = session.prepare(query, planner="tcombined").shippable()
    bogus = ShardSpec(
        prepared=dataclasses.replace(prepared, kind="bogus-kind"),
        collect_feedback=False,
        feedback_excluded_aliases=frozenset(),
        scan_candidates={},
        partition_alias="f",
        parallelism=1,
        snapshot_version=catalog.version,
        table_versions={"F": catalog.table_version("F")},
    )
    tables = {"F": catalog.get("F")}
    with pytest.raises(ShardExecutionError):
        pool.run(bogus, tables, [[(0, 0, 80)], [(1, 80, 160)]])

    # Same pool object, next query succeeds with the same answer.
    assert shard_pool(2) is pool
    retry = session.execute(
        query, planner="tcombined", parallelism=1, partitions=4, shards=2
    )
    assert retry.rows == good.rows


def test_shard_pool_registry_shutdown(sessions, workload):
    """shutdown_shard_pools() empties the registry; pools recreate on demand."""
    query, _expected = workload
    session = sessions[False]
    session.execute(query, planner="tcombined", parallelism=1, partitions=4, shards=2)
    assert 2 in shard._SHARD_POOLS
    shard.shutdown_shard_pools()
    assert shard._SHARD_POOLS == {}
    result = session.execute(
        query, planner="tcombined", parallelism=1, partitions=4, shards=2
    )
    assert result.metrics.shards_executed == 2


def test_session_and_service_shard_knobs(catalogs, workload):
    """Session-level shards applies by default; the service overrides per call."""
    from repro.service import QueryService

    query, _expected = workload
    session = Session(catalogs[False], stats_sample_size=200, shards=2, partitions=4)
    serial_session = Session(catalogs[False], stats_sample_size=200, partitions=4)
    sharded = session.execute(query, planner="tcombined")
    serial = serial_session.execute(query, planner="tcombined")
    assert sharded.metrics.shards_executed == 2
    assert sharded.rows == serial.rows

    with QueryService(serial_session, shards=2, partitions=4) as service:
        served = service.execute(query, planner="tcombined")
        assert served.metrics.shards_executed == 2
        assert served.rows == serial.rows
        # The wrapped session keeps its own knob.
        assert serial_session.options.shards == 1


def test_invalid_shards_rejected(catalogs):
    with pytest.raises(ValueError):
        Session(catalogs[False], shards=0)
    session = Session(catalogs[False])
    query = generate_random_query(catalogs[False], RandomQueryConfig(seed=3))
    with pytest.raises(ValueError):
        session.execute(query, planner="tcombined", shards=0)
