"""The stats cache measures each base predicate once per table version.

:class:`repro.service.stats_cache.StatsCache` memoizes every *measured*
base-predicate selectivity under ``(table, table version, sample size,
seed, predicate key)``, and the estimator asks it before measuring.  These
tests pin what that may and may not change: a query planned again measures
nothing and plans byte-identically, a commit retires only the committed
table's measurements, a feedback override or a table the catalog does not
hold never enters the memo, and a session without the cache plans exactly
as one with it.
"""

from __future__ import annotations

import pytest

from repro import QueryService, Session, Table
from repro.core.planner.base import PlannerContext
from repro.core.planner.combined import TCombinedPlanner
from repro.engine.session import PLANNERS
from repro.service import StatsCache
from repro.sql import parse_query
from repro.stats.selectivity import SelectivityEstimator
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
    measure = SelectivityEstimator._measure_on_sample

    def counting(self, alias, expr):
        keys.append(expr.key())
        return measure(self, alias, expr)

    monkeypatch.setattr(SelectivityEstimator, "_measure_on_sample", counting)
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
        query, catalog, stats_provider=cache, selectivity_overrides={pinned: 0.123}
    )
    TCombinedPlanner(context).plan()
    assert pinned not in measured and len(measured) == 3

    measured.clear()
    context = PlannerContext.for_query(query, catalog, stats_provider=cache)
    TCombinedPlanner(context).plan()
    assert measured == [pinned]  # the other three come from the memo
    (predicate,) = [p for p in context.predicate_tree.base_predicates() if p.key() == pinned]
    assert context.estimates.selectivity(predicate) != 0.123


def test_tables_the_catalog_does_not_hold_are_never_memoized():
    catalog = movie_catalog()
    cache = StatsCache(catalog)
    detached = Table.from_dict("elsewhere", {"x": [1, 2, 3]})
    superseded = catalog.get("title")
    catalog.replace(Table.from_dict("title", {"id": [1], "production_year": [2008]}))
    calls = []
    for table in (detached, superseded, detached, superseded):
        value = cache.measured_selectivity(table, 10, 0, "k", lambda: calls.append(1) or 0.5)
        assert value == 0.5
    assert len(calls) == 4
    assert cache.selectivity_stats.insertions == 0
    assert cache.selectivity_stats.lookups == 0


def test_session_without_the_cache_plans_identically(job_catalog):
    plain = Session(job_catalog)
    cached = Session(job_catalog, stats_provider=StatsCache(job_catalog))
    for query in job_query_groups():
        for name, planner_class in PLANNERS.items():
            expected = planned_text(planner_class(plain._planner_context(query)).plan())
            for _ in range(2):  # the second run reads every selectivity from the memo
                assert planned_text(planner_class(cached._planner_context(query)).plan()) == (
                    expected
                ), (query.name, name)
