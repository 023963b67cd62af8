"""Differential suite for the fused expression path.

The engine evaluates every predicate through the fused selection-vector
evaluator (:mod:`repro.kernels.fused`, dictionary-aware string predicates
included).  It must return the oracle's rows under every planner, at
parallelism {1, 4} x partitions {1, 3}, with and without secondary indexes;
and at the expression level it must equal ``BooleanExpr.evaluate`` — the
full-width reference it restricts — on NaN/NULL three-valued edge cases and
dictionary-miss constants, with zero-I/O empty-input early exits, doing
strictly less clause work than evaluating every clause over every row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Column, Session, Table
from repro.access.manager import ensure_access_manager
from repro.engine.metrics import ExecContext
from repro.expr.ast import iter_base_predicates
from repro.expr.eval import RowBatch
from repro.kernels.fused import FusedEvaluator
from repro.physical.expressions import evaluate_predicate, read_join_keys
from repro.sql import parse_query
from repro.testing.differential import DEFAULT_PLANNERS
from repro.testing.oracle import evaluate_oracle

PAGE = 16

#: Predicate-heavy disjunctive workload over dictionary-eligible string
#: columns (status/region are low-cardinality), NULLs in both string and
#: float columns, genuine NaN cells, LIKE/IN, a cross-table comparison, and
#: a constant absent from every dictionary.
QUERIES = [
    (
        "and_chain_strings",
        "SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE o.status = 'gold' AND o.amount < 70 AND c.region IN ('n', 's')",
    ),
    (
        "or_tree_like",
        "SELECT o.id, o.status FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE (o.status LIKE 'go%' AND o.amount IS NOT NULL) "
        "   OR (c.region = 'w' AND o.amount > 90) OR o.status = 'bronze'",
    ),
    (
        "dictionary_miss",
        "SELECT o.id FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE o.status = 'no_such_status' OR c.region IN ('zz', 'n') "
        "   OR o.status LIKE 'zz%'",
    ),
    (
        "nan_null_edges",
        "SELECT o.id, o.amount FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE (o.amount > 50 AND o.status != 'silver') "
        "   OR (o.amount IS NULL AND c.region = 'e') OR c.score > o.amount",
    ),
]


def _catalog(with_indexes: bool) -> Catalog:
    rng = np.random.default_rng(23)
    n, m = 400, 60
    amounts = rng.uniform(0, 100, n).round(1).tolist()
    for position in range(0, n, 13):
        amounts[position] = None  # NULL floats
    for position in range(5, n, 29):
        amounts[position] = float("nan")  # genuine (non-NULL) NaN cells
    statuses = [["gold", "silver", "bronze", None][i % 4] for i in range(n)]
    orders = Table(
        "orders",
        [
            Column("id", list(range(n)), page_size=PAGE),
            Column("cust", rng.integers(0, m, n).tolist(), page_size=PAGE),
            Column("status", statuses, page_size=PAGE),
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
        manager.create_index("customers", "region", kind="bitmap")
    return catalog


@pytest.fixture(scope="module")
def catalogs():
    return {True: _catalog(with_indexes=True), False: _catalog(with_indexes=False)}


@pytest.fixture(scope="module")
def oracle_rows(catalogs):
    return {
        name: evaluate_oracle(catalogs[False], parse_query(sql)) for name, sql in QUERIES
    }


# --------------------------------------------------------------------------- #
# The matrix: planners x parallelism/partitions x indexes, against the oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("planner", DEFAULT_PLANNERS + ("tmin",))
@pytest.mark.parametrize(
    "parallelism,partitions,indexed",
    [(1, 1, False), (1, 3, True), (4, 1, True), (4, 3, False)],
)
def test_rows_match_oracle(
    catalogs, oracle_rows, planner, parallelism, partitions, indexed
):
    session = Session(
        catalogs[indexed],
        parallelism=parallelism,
        partitions=partitions,
        access_paths=indexed,
    )
    for name, sql in QUERIES:
        result = session.execute(sql, planner=planner)
        assert result.sorted_rows() == oracle_rows[name], (planner, name)


# --------------------------------------------------------------------------- #
# Expression level: the fused evaluator against BooleanExpr.evaluate
# --------------------------------------------------------------------------- #
def _joined_batch(catalog: Catalog) -> RowBatch:
    """orders joined to customers on ``cust = cid`` (cid is the row index)."""
    orders, customers = catalog.get("orders"), catalog.get("customers")
    return RowBatch(
        {"o": orders, "c": customers},
        {
            "o": np.arange(orders.num_rows, dtype=np.int64),
            "c": np.asarray(orders.column("cust").data, dtype=np.int64),
        },
    )


@pytest.mark.parametrize("name,sql", QUERIES)
def test_fused_equals_full_width_evaluate(catalogs, name, sql):
    """Same three-valued truth per row, whatever order the clauses run in."""
    predicate = parse_query(sql).predicate
    batch = _joined_batch(catalogs[False])
    expected = predicate.evaluate(batch)
    leaves = list(iter_base_predicates(predicate))
    ascending = {leaf.key(): i / len(leaves) for i, leaf in enumerate(leaves)}
    descending = {key: 1.0 - value for key, value in ascending.items()}
    for selectivities in ({}, ascending, descending):
        context = ExecContext()
        truth = FusedEvaluator(batch, selectivities, context).evaluate(predicate)
        assert truth.dtype == expected.dtype
        assert np.array_equal(truth, expected), (name, selectivities)
        assert 0 < context.metrics.clause_rows_evaluated <= batch.num_rows * len(leaves)


# --------------------------------------------------------------------------- #
# Satellites
# --------------------------------------------------------------------------- #
def test_zero_row_predicate_skips_all_reads(catalogs):
    """Empty inputs must not build batches or touch storage at all."""
    catalog = catalogs[False]
    orders = catalog.get("orders")
    predicate = parse_query(
        "SELECT o.id FROM orders AS o WHERE o.status = 'gold' AND o.amount < 50"
    ).predicate
    context = ExecContext()
    truth = evaluate_predicate(
        predicate,
        {"o": orders},
        {"o": np.zeros(0, dtype=np.int64)},
        context,
    )
    assert truth.shape == (0,) and truth.dtype == np.uint8
    assert context.iostats.pages_read == 0
    assert context.iostats.pages_hit == 0
    assert context.iostats.values_read == 0
    assert context.iostats.sequential_scans == 0
    assert context.metrics.clause_rows_evaluated == 0


def test_zero_row_join_keys_skip_all_reads(catalogs):
    catalog = catalogs[False]
    orders, customers = catalog.get("orders"), catalog.get("customers")
    conditions = list(
        parse_query(
            "SELECT o.id FROM orders AS o JOIN customers AS c ON o.cust = c.cid"
        ).join_conditions
    )
    some_rows = np.arange(10, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    for left_rows, right_rows in [(empty, some_rows), (some_rows, empty), (empty, empty)]:
        context = ExecContext()
        left_keys, right_keys = read_join_keys(
            conditions,
            {"o": orders},
            {"o": left_rows},
            {"c": customers},
            {"c": right_rows},
            context,
        )
        assert left_keys.shape == left_rows.shape
        assert right_keys.shape == right_rows.shape
        assert (left_keys == -1).all() and (right_keys == -1).all()
        assert context.iostats.pages_read == 0
        assert context.iostats.values_read == 0
        assert context.iostats.sequential_scans == 0


def test_ast_memoization():
    predicate = parse_query(
        "SELECT o.id FROM orders AS o WHERE o.status = 'gold' AND o.amount < 50"
    ).predicate
    assert predicate.key() is predicate.key()
    assert predicate.tables() is predicate.tables()
    child = predicate.children()[0]
    assert child.key() is child.key()


def test_dictionary_miss_is_no_match_not_error(catalogs):
    sql = (
        "SELECT o.id FROM orders AS o "
        "WHERE o.status = 'absent' OR o.status IN ('nope', 'nada') "
        "   OR o.status LIKE 'qq%'"
    )
    assert evaluate_oracle(catalogs[False], parse_query(sql)) == []
    assert Session(catalogs[False]).execute(sql).rows == []


def test_fused_does_less_clause_work(catalogs):
    """A multi-clause AND evaluated as one predicate short-circuits."""
    orders = catalogs[False].get("orders")
    predicate = parse_query(
        "SELECT o.id FROM orders AS o "
        "WHERE o.status = 'gold' AND o.amount < 50 AND o.id < 300"
    ).predicate
    rows = np.arange(400, dtype=np.int64)
    context = ExecContext()
    truth = evaluate_predicate(predicate, {"o": orders}, {"o": rows}, context)
    assert np.array_equal(truth, predicate.evaluate(RowBatch({"o": orders}, {"o": rows})))
    # The first clause sees all rows; later clauses only the still-alive —
    # evaluating every clause over every row would charge 3 * 400.
    assert 400 < context.metrics.clause_rows_evaluated < 3 * 400


# --------------------------------------------------------------------------- #
# Clause-work reduction on the 50k-row events workload
# --------------------------------------------------------------------------- #
EVENT_ROWS = 50_000

#: Whole-tree predicates: the AND chain leads with a rare status (selective
#: clause first after ordering); the OR tree with a common one (accepting
#: clause first).
EVENT_PREDICATES = {
    "and_chain": (
        "SELECT e.id FROM events AS e WHERE e.status = 'rare' "
        "AND e.amount < 5.0 AND e.id < 1000"
    ),
    "or_tree": (
        "SELECT e.id FROM events AS e WHERE e.status = 'common' "
        "OR e.amount > 95.0 OR e.id < 500"
    ),
}


def _events_table() -> Table:
    rng = np.random.default_rng(23)
    pool = ["common"] * 60 + ["uncommon"] * 25 + ["other"] * 12 + ["rare"] * 2 + [None]
    statuses = [pool[i] for i in rng.integers(0, len(pool), EVENT_ROWS)]
    amounts = rng.uniform(0.0, 100.0, EVENT_ROWS).round(2).tolist()
    for position in range(0, EVENT_ROWS, 97):
        amounts[position] = None
    return Table(
        "events",
        [
            Column("id", list(range(EVENT_ROWS))),
            Column("status", statuses),
            Column("amount", amounts),
        ],
    )


def test_clause_work_at_least_halved_on_events_workload():
    """Ordered by measured selectivity, the fused path evaluates < rows x
    leaves clause rows on every predicate and >= 2x fewer in total (the
    full-width figure is arithmetic: every clause over every row)."""
    tables = {"e": _events_table()}
    rows = {"e": np.arange(EVENT_ROWS, dtype=np.int64)}
    full_width_total = fused_total = 0
    for name, sql in EVENT_PREDICATES.items():
        predicate = parse_query(sql).predicate
        selectivities = {
            child.key(): float(
                (evaluate_predicate(child, tables, rows, ExecContext()) == 1).mean()
            )
            for child in predicate.children()
        }
        context = ExecContext(clause_selectivities=selectivities)
        truth = evaluate_predicate(predicate, tables, rows, context)
        assert np.array_equal(truth, predicate.evaluate(RowBatch(tables, rows))), name
        full_width = EVENT_ROWS * sum(1 for _ in iter_base_predicates(predicate))
        fused = context.metrics.clause_rows_evaluated
        assert fused < full_width, name
        full_width_total += full_width
        fused_total += fused
    assert full_width_total >= 2 * fused_total, (fused_total, full_width_total)


def test_explain_analyze_shows_clause_order(catalogs):
    from repro.optimizer import explain_analyze_report

    session = Session(catalogs[False])
    # A cross-table OR cannot be pushed below the join, so it survives
    # planning as one multi-clause FilterNode — the annotation target.
    sql = (
        "SELECT o.id FROM orders AS o JOIN customers AS c ON o.cust = c.cid "
        "WHERE o.amount > 90 OR c.region = 'w'"
    )
    prepared = session.prepare(sql, planner="bpushconj")
    result = session.execute_prepared(prepared, collect_feedback=True)
    report = explain_analyze_report(prepared, result)
    assert "clause order:" in report
