"""Differential suite: indexes on/off must be byte-identical everywhere.

Satellite of the access-path subsystem: every planner, at parallelism
{1, 4} x partitions {1, 3}, with and without access paths (and with
secondary indexes created on the pruning columns), must return exactly the
rows the pruning-free oracle returns.  Scan pruning may only change which
pages are touched, never the result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Column, Session, Table
from repro.access.manager import ensure_access_manager
from repro.testing.differential import DEFAULT_PLANNERS
from repro.testing.oracle import evaluate_oracle
from repro.sql import parse_query

PAGE = 16

#: Disjunctive workload mixing prunable single-column clauses (equality,
#: range, IN, IS NULL, LIKE prefix) with cross-table clauses that prune
#: nothing, plus NULLs on both sides.
QUERIES = [
    (
        "point_or_range",
        "SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE (o.status = 'gold' AND o.amount < 50) OR o.ts BETWEEN 120 AND 140",
    ),
    (
        "cross_table_mix",
        "SELECT o.id FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE (o.ts < 60 AND c.region IN ('n', 's')) "
        "   OR (o.status = 'gold' AND c.score > o.amount)",
    ),
    (
        "nulls_and_like",
        "SELECT o.id, o.status FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE (o.status LIKE 'go%' AND o.amount IS NOT NULL) "
        "   OR (c.region = 'w' AND o.amount > 95)",
    ),
    (
        "empty_result",
        "SELECT o.id FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE o.ts < 0 OR (o.status = 'nope' AND c.region = 'n')",
    ),
]


def _catalog(with_indexes: bool) -> Catalog:
    rng = np.random.default_rng(11)
    n, m = 600, 80
    amounts = rng.uniform(0, 100, n).round(1).tolist()
    for position in range(0, n, 17):
        amounts[position] = None  # NULLs in a pruning column
    orders = Table(
        "orders",
        [
            Column("id", list(range(n)), page_size=PAGE),
            Column("cust", rng.integers(0, m, n).tolist(), page_size=PAGE),
            Column("ts", list(range(n)), page_size=PAGE),  # clustered
            Column(
                "status",
                [["gold", "silver", "bronze"][i % 3] for i in range(n)],
                page_size=PAGE,
            ),
            Column("amount", amounts, page_size=PAGE),
        ],
    )
    customers = Table(
        "customers",
        [
            Column("cid", list(range(m)), page_size=PAGE),
            Column("name", [f"cust_{i}" for i in range(m)], page_size=PAGE),
            Column("region", [["n", "s", "e", "w"][i % 4] for i in range(m)], page_size=PAGE),
            Column("score", rng.uniform(0, 10, m).tolist(), page_size=PAGE),
        ],
    )
    catalog = Catalog([orders, customers])
    if with_indexes:
        manager = ensure_access_manager(catalog)
        manager.create_index("orders", "status", kind="bitmap")
        manager.create_index("orders", "ts", kind="sorted")
        manager.create_index("customers", "region", kind="bitmap")
    return catalog


@pytest.fixture(scope="module")
def catalogs():
    return {True: _catalog(with_indexes=True), False: _catalog(with_indexes=False)}


@pytest.fixture(scope="module")
def oracle_rows(catalogs):
    return {
        name: evaluate_oracle(catalogs[False], parse_query(sql))
        for name, sql in QUERIES
    }


@pytest.mark.parametrize("planner", DEFAULT_PLANNERS)
@pytest.mark.parametrize("parallelism,partitions", [(1, 1), (1, 3), (4, 1), (4, 3)])
def test_pruned_results_match_oracle_and_unpruned(
    catalogs, oracle_rows, planner, parallelism, partitions
):
    indexed = Session(
        catalogs[True], access_paths=True, parallelism=parallelism, partitions=partitions
    )
    plain = Session(
        catalogs[False], access_paths=False, parallelism=parallelism, partitions=partitions
    )
    for name, sql in QUERIES:
        pruned = indexed.execute(sql, planner=planner)
        unpruned = plain.execute(sql, planner=planner)
        assert pruned.sorted_rows() == oracle_rows[name], (planner, name)
        # Byte-identical: same rows in the same order, not just the same set.
        assert pruned.rows == unpruned.rows, (planner, name)


def test_zone_maps_alone_match_unpruned(catalogs, oracle_rows):
    """Access paths on but no indexes: zone-map-only pruning is also sound."""
    session = Session(catalogs[False], access_paths=True)
    plain = Session(catalogs[False], access_paths=False)
    for name, sql in QUERIES:
        assert session.execute(sql).rows == plain.execute(sql).rows, name


def test_commit_after_compaction_before_any_read(tmp_path):
    """index -> delete -> online compact() -> commit -> read, pruning on.

    The compaction renumbers rows; a commit issued before any read must not
    extend the pre-compaction index (which described the old positions).
    """
    from repro import QueryService
    from repro.storage.disk import load_catalog, save_catalog

    n = 400
    events = Table.from_dict(
        "events",
        {
            "id": list(range(n)),
            "kind": [["a", "b", "c", "d"][i % 4] for i in range(n)],
            "score": [float(i % 50) for i in range(n)],
        },
    )
    save_catalog(Catalog([events]), tmp_path)
    catalog = load_catalog(tmp_path, durable=True)
    ensure_access_manager(catalog).create_index("events", "kind", kind="bitmap")
    sql = (
        "SELECT e.id FROM events AS e "
        "WHERE (e.kind = 'b' AND e.score > 40) OR (e.kind = 'c' AND e.score < 5)"
    )
    with QueryService(Session(catalog)) as service:
        service.execute(sql)  # materializes the index entry at this version
        batch = catalog.begin_mutation()
        batch.delete("events", positions=np.arange(100))
        batch.commit()
        assert service.compact()["rows_reclaimed"] == 100
        batch = catalog.begin_mutation()
        batch.insert(
            "events",
            [{"id": 1000 + i, "kind": "b", "score": 45.0} for i in range(10)],
        )
        batch.commit()
        result = service.execute(sql)
        assert result.sorted_rows() == evaluate_oracle(catalog, parse_query(sql))
        assert (1005,) in result.sorted_rows()
