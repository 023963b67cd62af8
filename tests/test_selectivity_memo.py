"""The stats cache measures each base predicate once per table version.

:class:`repro.service.stats_cache.StatsCache` memoizes every *measured*
base-predicate selectivity under ``(table, table version, sample size,
predicate key)``, and the estimate provider asks it before measuring.
Every session owns one.  These tests pin what that may and may not change:
a query planned again measures nothing and plans byte-identically, a commit
retires only the committed table's measurements, a feedback override or a
table the catalog does not hold never enters the memo, and a fresh session
plans exactly as one with a warm cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, QueryService, Session, Table
from repro.core.planner.base import PlannerContext
from repro.core.planner.combined import TCombinedPlanner
from repro.engine.session import PLANNERS
from repro.optimizer.estimates import EstimateProvider
from repro.service import StatsCache
from repro.sql import parse_query
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

from tests.test_service import SQL, movie_catalog


@pytest.fixture(scope="module")
def job_catalog():
    return generate_imdb_catalog(scale=0.05, seed=7)


@pytest.fixture()
def measured(monkeypatch) -> list[str]:
    """The keys of the predicates measured on a sample, in order."""
    keys: list[str] = []
    measure = EstimateProvider._measure_on_sample

    def counting(self, alias, expr):
        keys.append(expr.key())
        return measure(self, alias, expr)

    monkeypatch.setattr(EstimateProvider, "_measure_on_sample", counting)
    return keys


def planned_text(result) -> tuple[str, str, list[float]]:
    """A planner result as its plan text, ``repr`` cost and pre-order rows."""
    rows = [result.node_rows[node.node_id] for root in result.roots for node in root.walk()]
    return result.description(), repr(result.estimated_cost), rows


def test_second_plan_cache_pass_measures_nothing(job_catalog, measured, monkeypatch):
    picks = []
    plan = TCombinedPlanner.plan

    def recording(self):
        result = plan(self)
        picks.append(planned_text(result))
        return result

    monkeypatch.setattr(TCombinedPlanner, "plan", recording)
    queries = job_query_groups()
    with QueryService(Session(job_catalog)) as service:
        assert service.warm(queries) == len(queries)
        first_pass = len(measured)
        misses = service.stats_cache.selectivity_stats.misses
        assert first_pass == misses > 0
        service.plan_cache.invalidate()
        assert service.warm(queries) == len(queries)
        assert len(measured) == first_pass
        assert service.stats_cache.selectivity_stats.misses == misses
        assert service.stats_cache.selectivity_stats.hits > 0
    assert picks[len(queries):] == picks[: len(queries)]


def test_commit_retires_only_the_committed_tables_measurements(measured):
    catalog = movie_catalog()
    with QueryService(Session(catalog)) as service:
        service.execute(SQL)
        assert sorted(measured) == [
            "(mi.info > 7.0)",
            "(mi.info > 8.0)",
            "(t.production_year > 1980)",
            "(t.production_year > 2000)",
        ]
        batch = catalog.begin_mutation()
        batch.insert("movie_info_idx", [{"movie_id": 2, "info": 6.5}])
        batch.commit()
        assert service.stats_cache.selectivity_stats.evictions == 2
        measured.clear()
        assert not service.execute(SQL).cache_hit
        assert sorted(measured) == ["(mi.info > 7.0)", "(mi.info > 8.0)"]


def test_feedback_overrides_never_enter_the_memo(measured):
    catalog = movie_catalog()
    cache = StatsCache(catalog)
    query = parse_query(SQL)
    pinned = "(t.production_year > 2000)"
    context = PlannerContext.for_query(
        query, catalog, stats_cache=cache, selectivity_overrides={pinned: 0.123}
    )
    TCombinedPlanner(context).plan()
    assert pinned not in measured and len(measured) == 3

    measured.clear()
    context = PlannerContext.for_query(query, catalog, stats_cache=cache)
    TCombinedPlanner(context).plan()
    assert measured == [pinned]  # the other three come from the memo
    (predicate,) = [p for p in context.predicate_tree.base_predicates() if p.key() == pinned]
    assert context.estimates.selectivity(predicate) != 0.123


@pytest.mark.parametrize(
    "lookup",
    [
        lambda cache, table: cache.measured_selectivity(table, 10, "k", lambda: 0.5),
        lambda cache, table: cache.table_stats(table),
        lambda cache, table: cache.sample_positions(table, 2),
    ],
    ids=["measured_selectivity", "table_stats", "sample_positions"],
)
def test_tables_the_catalog_does_not_hold_are_never_memoized(lookup):
    catalog = movie_catalog()
    cache = StatsCache(catalog)
    detached = Table.from_dict("elsewhere", {"x": [1, 2, 3]})
    superseded = catalog.get("title")
    catalog.replace(Table.from_dict("title", {"id": [1], "production_year": [2008]}))
    for table in (detached, superseded, detached, superseded):
        assert lookup(cache, table) is not None
    for counters in (cache.stats, cache.selectivity_stats):
        assert counters.insertions == 0
        assert counters.lookups == 0


def test_a_superseded_table_never_feeds_its_replacement():
    catalog = Catalog([Table.from_dict("t", {"x": np.arange(50_000)})])
    session = Session(catalog)
    superseded = catalog.get("t")
    catalog.replace(Table.from_dict("t", {"x": np.arange(30_000)}))
    assert session.stats_cache.table_stats(superseded).num_rows == 50_000
    assert session.stats_cache.sample_positions(superseded, 20_000).max() >= 30_000
    result = session.execute("SELECT t.x FROM t AS t WHERE t.x < 100 OR t.x > 29990")
    assert result.row_count == 109
    assert session.stats_cache.table_stats(catalog.get("t")).num_rows == 30_000


def test_a_fresh_session_and_a_warm_cache_plan_identically(job_catalog):
    warm = Session(job_catalog)
    for query in job_query_groups():
        for name, planner_class in PLANNERS.items():
            fresh = Session(job_catalog)._planner_context(query)
            expected = planned_text(planner_class(fresh).plan())
            for _ in range(2):  # the second run reads every selectivity from the memo
                assert planned_text(planner_class(warm._planner_context(query)).plan()) == (
                    expected
                ), (query.name, name)


def test_a_plain_session_plans_a_pass_again_from_its_cache(job_catalog, measured):
    session = Session(job_catalog)
    queries = job_query_groups()
    for query in queries:
        session.prepare(query)
    cache = session.stats_cache
    misses = (cache.stats.misses, cache.selectivity_stats.misses)
    assert misses[1] == len(measured) > 0
    for query in queries:
        session.prepare(query)
    assert (cache.stats.misses, cache.selectivity_stats.misses) == misses
    assert cache.selectivity_stats.hits > 0
