"""Sampled selectivities equal the row evaluator's pass rate on the same sample.

The planner measures every base predicate on a sample of its table (the
paper's Section 4.1) through the execution's leaf routine, which evaluates a
predicate on a dictionary-coded column over codes.  These tests redraw the
sample independently (:func:`repro.stats.selectivity.sample_positions`),
evaluate each base predicate with the row-at-a-time
``BooleanExpr.evaluate`` on it, and require the planner's selectivity to be
exactly (``==``) that pass rate — on the JOB queries, the golden synthetic
queries, the ``events`` lookup templates and a string table with NULLs.

Planning must also leave execution's I/O counters alone: sample reads are
not accounted, so a cold re-plan executes with the same counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.access.dictionary import table_dictionary
from repro.core.planner.base import PlannerContext, PlanOptions
from repro.expr import three_valued as tv
from repro.expr.eval import RowBatch
from repro.sql import parse_query
from repro.stats.selectivity import sample_positions
from repro.storage.column import Column
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog

from tests.test_golden_plans import synthetic_queries


def assert_sampled_selectivities_exact(catalog: Catalog, query, options=PlanOptions()) -> int:
    """Check every base predicate of ``query``; returns how many were checked."""
    if isinstance(query, str):
        query = parse_query(query)
    estimates = PlannerContext.for_query(query, catalog, options).estimates
    checked = 0
    for predicate in query.base_predicates():
        aliases = predicate.tables()
        if len(aliases) != 1:
            continue
        (alias,) = aliases
        table = catalog.get(query.tables[alias])
        positions = sample_positions(table.num_rows, options.stats_sample_size)
        if positions.size == 0:
            continue
        truth = predicate.evaluate(RowBatch({alias: table}, {alias: positions}))
        expected = float(tv.is_true(truth).sum()) / positions.size
        assert estimates.selectivity(predicate) == expected, predicate.key()
        checked += 1
    return checked


@pytest.fixture(scope="module")
def job_catalog() -> Catalog:
    return generate_imdb_catalog(scale=0.05, seed=7)


def test_job_queries(job_catalog):
    queries = job_query_groups()
    assert len(queries) == 33
    checked = sum(assert_sampled_selectivities_exact(job_catalog, query) for query in queries)
    assert checked > 100


def test_golden_synthetic_queries():
    catalog = generate_synthetic_catalog(SyntheticConfig(table_size=2000, seed=11))
    queries = synthetic_queries()
    assert sum(assert_sampled_selectivities_exact(catalog, query) for query in queries) > 0


# --------------------------------------------------------------------------- #
# The four lookup templates on an events table, clustered by category and time
# --------------------------------------------------------------------------- #
CATEGORIES = 80


def events_catalog(rows: int) -> Catalog:
    rng = np.random.default_rng(7)
    ids = np.arange(rows)
    names = np.array([f"cat_{c:02d}" for c in range(CATEGORIES)], dtype=object)
    cat_ids = ids // (rows // CATEGORIES)
    events = Table(
        "events",
        [
            Column("id", ids),
            Column("category", names[cat_ids]),
            Column("cat_id", cat_ids),
            Column("ts", ids.copy()),
            Column("value", rng.random(rows)),
        ],
    )
    dims = Table(
        "dims",
        [Column("did", np.arange(CATEGORIES)), Column("weight", rng.random(CATEGORIES))],
    )
    return Catalog([events, dims])


EVENT_TEMPLATES = (
    "SELECT e.id FROM events AS e WHERE e.category = 'cat_07'",
    "SELECT e.id, e.value FROM events AS e WHERE e.ts BETWEEN 30000 AND 31500",
    "SELECT e.id FROM events AS e WHERE (e.category = 'cat_07' AND e.value < 0.5) OR e.ts < 160",
    "SELECT e.id, d.weight FROM events AS e JOIN dims AS d ON e.cat_id = d.did "
    "WHERE e.ts BETWEEN 30000 AND 30900 AND d.weight >= 0.0",
)


def test_event_lookup_templates():
    # Larger than the sample, so the estimator really samples.
    catalog = events_catalog(40_000)
    assert table_dictionary(catalog.get("events"), "category") is not None
    for statement in EVENT_TEMPLATES:
        assert assert_sampled_selectivities_exact(catalog, statement) > 0


# --------------------------------------------------------------------------- #
# Strings with NULL cells
# --------------------------------------------------------------------------- #
def words_catalog() -> Catalog:
    rng = np.random.default_rng(3)
    rows = 600
    pool = np.array(["alpha", "Beta", "gamma", "delta", "Alphabet", "beta", "eps"], dtype=object)
    with_nulls = pool[rng.integers(0, len(pool), size=rows)].tolist()
    for position in rng.choice(rows, size=rows // 6, replace=False):
        with_nulls[int(position)] = None
    words = Table.from_dict(
        "words",
        {
            "id": list(range(rows)),
            "s": with_nulls,
            "t": pool[rng.integers(0, len(pool), size=rows)].tolist(),
            # Near-unique: no dictionary, so its leaves take the row evaluator.
            "u": [f"w{i:04d}" for i in range(rows)],
        },
    )
    return Catalog([words])


def word_predicates(column: str) -> list[str]:
    c = f"w.{column}"
    return [
        f"{c} = 'beta'",
        f"{c} <> 'beta'",
        f"{c} < 'delta'",
        f"{c} >= 'Beta'",
        f"{c} IN ('alpha', 'gamma', 'zeta')",
        f"{c} NOT IN ('alpha', 'eps')",
        f"{c} LIKE 'alpha%'",
        f"{c} NOT LIKE '%ta'",
        f"{c} ILIKE 'ALPHA%'",
        f"{c} ILIKE '_eta'",
        f"{c} = 'not-in-the-dictionary'",
        f"{c} > 'not-in-the-dictionary'",
        f"{c} IS NULL",
    ]


def word_query(predicate: str) -> str:
    return f"SELECT w.id FROM words AS w WHERE {predicate}"


@pytest.mark.parametrize("sample_size", [150, 20_000])
def test_strings_with_nulls_three_valued(sample_size):
    catalog = words_catalog()
    table = catalog.get("words")
    assert table.column("s").null_mask.any()
    assert table_dictionary(table, "s") is not None
    assert table_dictionary(table, "u") is None
    options = PlanOptions(stats_sample_size=sample_size)
    for column in ("s", "t", "u"):
        for predicate in word_predicates(column):
            query = word_query(predicate)
            assert assert_sampled_selectivities_exact(catalog, query, options) == 1, query


def test_string_predicates_plan_two_valued_on_null_free_columns():
    catalog = words_catalog()
    for column in ("s", "t", "u"):
        for predicate in word_predicates(column):
            query = parse_query(word_query(predicate))
            unknown = column == "s" and not predicate.endswith("IS NULL")
            assert query.can_be_unknown(catalog) == unknown, predicate


# --------------------------------------------------------------------------- #
# Planning's sample reads stay out of execution's counters
# --------------------------------------------------------------------------- #
def test_a_cold_re_plan_leaves_the_execution_io_alone():
    catalog = events_catalog(40_000)
    table = catalog.get("events")
    assert table_dictionary(table, "category") is not None
    session = Session(catalog)
    statements = [*EVENT_TEMPLATES, "SELECT e.id FROM events AS e WHERE e.category LIKE 'cat_1%'"]

    def executed_io() -> list[dict[str, int]]:
        prepared = [session.prepare(statement) for statement in statements]
        return [session.execute_prepared(plan).iostats.as_dict() for plan in prepared]

    before = executed_io()
    assert all(io["values_read"] > 0 for io in before)
    session.stats_cache.invalidate()  # the re-plan samples and measures again
    assert executed_io() == before
