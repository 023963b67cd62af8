"""Tests of the query-service layer: caches, fingerprints, batch execution."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import Catalog, QueryService, Session, Table
from repro.core.planner import CostParams, PlanOptions
from repro.service import PlanCache, StatsCache, query_fingerprint
from repro.sql import clear_parse_cache, parse_query_cached
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog, make_dnf_query

SQL = (
    "SELECT t.title, t.production_year, mi.info "
    "FROM title AS t JOIN movie_info_idx AS mi ON t.id = mi.movie_id "
    "WHERE (t.production_year > 2000 AND mi.info > 7.0) "
    "   OR (t.production_year > 1980 AND mi.info > 8.0)"
)

SQL_REFORMATTED = (
    "SELECT   t.title,  t.production_year,\n\tmi.info "
    "FROM title AS t JOIN movie_info_idx AS mi ON t.id = mi.movie_id "
    "WHERE (t.production_year > 2000 AND mi.info > 7.0)\n"
    "   OR  (t.production_year > 1980 AND mi.info > 8.0)"
)

#: The same query with commutative rearrangements: OR clauses swapped, AND
#: operands swapped, and the join condition flipped.
SQL_REARRANGED = (
    "SELECT t.title, t.production_year, mi.info "
    "FROM title AS t JOIN movie_info_idx AS mi ON mi.movie_id = t.id "
    "WHERE (mi.info > 8.0 AND t.production_year > 1980) "
    "   OR (t.production_year > 2000 AND mi.info > 7.0)"
)


def movie_catalog() -> Catalog:
    title = Table.from_dict(
        "title",
        {
            "id": [1, 2, 3, 4, 5, 6, 7],
            "title": ["TDK", "Evolution", "Shawshank", "Pulp", "Godfather", "Beetlejuice", "Avatar"],
            "production_year": [2008, 2001, 1994, 1994, 1972, 1988, 2009],
        },
    )
    movie_info_idx = Table.from_dict(
        "movie_info_idx",
        {"movie_id": [1, 3, 4, 5, 6, 7], "info": [9.0, 9.3, 8.9, 9.2, 7.5, 7.9]},
    )
    return Catalog([title, movie_info_idx])


@pytest.fixture()
def service():
    with QueryService(Session(movie_catalog()), max_workers=4) as query_service:
        yield query_service


@pytest.fixture(scope="module")
def synthetic_service():
    catalog = generate_synthetic_catalog(SyntheticConfig(table_size=400, seed=13))
    with QueryService(Session(catalog, stats_sample_size=400), max_workers=4) as query_service:
        yield query_service


# --------------------------------------------------------------------------- #
# Plan cache behaviour through the service
# --------------------------------------------------------------------------- #
def test_repeat_query_hits_plan_cache(service):
    first = service.execute(SQL)
    second = service.execute(SQL)
    assert not first.cache_hit
    assert second.cache_hit
    assert service.plan_cache.stats.hits == 1
    assert service.plan_cache.stats.misses == 1
    assert second.sorted_rows() == first.sorted_rows()
    assert second.plan_description == first.plan_description


def test_reformatted_and_rearranged_queries_share_one_plan(service):
    service.execute(SQL)
    for variant in (SQL_REFORMATTED, SQL_REARRANGED):
        result = service.execute(variant)
        assert result.cache_hit, variant
    assert service.plan_cache.stats.insertions == 1


def test_distinct_planners_get_distinct_entries(service):
    service.execute(SQL, planner="tpushdown")
    result = service.execute(SQL, planner="bdisj")
    assert not result.cache_hit
    assert len(service.plan_cache) == 2


def test_warm_prepares_without_executing(service):
    added = service.warm([SQL, SQL_REFORMATTED], planner="tcombined")
    assert added == 1
    assert service.execute(SQL).cache_hit


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #
V3 = (("title", 3),)


def test_fingerprint_stable_across_equivalent_spellings():
    base = query_fingerprint(SQL, "tcombined", table_versions=V3)
    assert query_fingerprint(SQL_REFORMATTED, "tcombined", table_versions=V3) == base
    assert query_fingerprint(SQL_REARRANGED, "tcombined", table_versions=V3) == base


def test_fingerprint_distinguishes_semantic_inputs():
    base = query_fingerprint(SQL, "tcombined", table_versions=V3)
    assert query_fingerprint(SQL, "tpushdown", table_versions=V3) != base
    assert query_fingerprint(SQL, "tcombined", table_versions=(("title", 4),)) != base
    assert query_fingerprint(SQL, "tcombined", PlanOptions(naive_tags=True), V3) != base
    assert query_fingerprint(SQL, "tcombined", PlanOptions(stats_sample_size=99), V3) != base
    assert query_fingerprint(SQL, "tcombined", table_versions=V3, access_version=0) != base
    assert (
        query_fingerprint(SQL + " LIMIT 3", "tcombined", table_versions=V3) != base
    )


#: One alternative value per planning option.  A field added to PlanOptions
#: has to be registered here, i.e. someone decides what changing it means.
ALTERNATIVES = {
    "cost_params": CostParams(alpha=2.0),
    "stats_sample_size": 99,
    "access_paths": False,
    "naive_tags": True,
}
PLAN_OPTION_FIELDS = [field.name for field in dataclasses.fields(PlanOptions)]


@pytest.mark.parametrize("field", PLAN_OPTION_FIELDS)
def test_every_planning_option_is_part_of_the_cache_key(service, field):
    assert field in ALTERNATIVES, f"no alternative value registered for PlanOptions.{field}"
    changed = PlanOptions().replace(**{field: ALTERNATIVES[field]})
    assert changed != PlanOptions()
    assert query_fingerprint(SQL, "tcombined", changed) != query_fingerprint(SQL, "tcombined")

    service.execute(SQL)
    assert service.execute(SQL).cache_hit
    service.session.plan_options = changed
    assert not service.execute(SQL).cache_hit
    assert service.execute(SQL).cache_hit


def test_alternatives_name_only_planning_options():
    assert sorted(ALTERNATIVES) == sorted(PLAN_OPTION_FIELDS)


def test_fingerprint_accepts_bound_queries():
    bound = parse_query_cached(SQL)
    assert query_fingerprint(bound, "tcombined") == query_fingerprint(SQL, "tcombined")


def test_parse_cache_memoizes_on_normalized_text():
    clear_parse_cache()
    no_strings = "SELECT t.id FROM title AS t WHERE t.production_year > 2000"
    assert parse_query_cached(no_strings) is parse_query_cached(
        "SELECT   t.id  FROM title AS t\nWHERE t.production_year > 2000"
    )


# --------------------------------------------------------------------------- #
# Invalidation on catalog mutation
# --------------------------------------------------------------------------- #
def test_catalog_version_bump_invalidates_plans_and_stats(service):
    catalog = service.session.catalog
    before = service.execute(SQL)
    assert before.row_count == 4

    # Replace movie_info_idx so only one movie is rated above the thresholds.
    catalog.replace(
        Table.from_dict("movie_info_idx", {"movie_id": [1], "info": [9.0]})
    )
    after = service.execute(SQL)
    assert not after.cache_hit
    assert after.row_count == 1
    assert service.execute(SQL).cache_hit  # the replacement plan is cached again


def test_stats_cache_invalidation_is_per_table():
    catalog = movie_catalog()
    cache = StatsCache(catalog)
    table = catalog.get("title")
    cache.table_stats(table)
    cache.sample_positions(table, 5)
    assert cache.stats.insertions == 2

    # Replacing an *unrelated* table must not disturb title's cached entries.
    catalog.replace(Table.from_dict("movie_info_idx", {"movie_id": [1], "info": [5.0]}))
    cache.table_stats(catalog.get("title"))
    cache.sample_positions(catalog.get("title"), 5)
    assert cache.stats.evictions == 0
    assert cache.stats.hits == 2

    # Replacing title itself retires exactly its two entries.
    catalog.replace(
        Table.from_dict("title", {"id": [1], "title": ["TDK"], "production_year": [2008]})
    )
    cache.table_stats(catalog.get("title"))
    assert cache.stats.evictions == 2


def test_stats_cache_per_table_explicit_invalidate():
    catalog = movie_catalog()
    cache = StatsCache(catalog)
    cache.table_stats(catalog.get("title"))
    cache.table_stats(catalog.get("movie_info_idx"))
    cache.invalidate(table="title")
    assert cache.stats.invalidations == 1
    cache.table_stats(catalog.get("movie_info_idx"))  # still cached
    assert cache.stats.hits == 1


def test_stats_cache_shared_across_distinct_queries(service):
    service.execute(SQL)
    misses_after_first = service.stats_cache.stats.misses
    service.execute(
        "SELECT t.title FROM title AS t JOIN movie_info_idx AS mi "
        "ON t.id = mi.movie_id WHERE t.production_year > 1990 OR mi.info > 9.0"
    )
    assert service.stats_cache.stats.hits > 0
    assert service.stats_cache.stats.misses == misses_after_first


# --------------------------------------------------------------------------- #
# Batch execution
# --------------------------------------------------------------------------- #
def test_concurrent_batch_matches_serial_session(synthetic_service):
    queries = [
        make_dnf_query(num_root_clauses=clauses, selectivity=selectivity)
        for clauses, selectivity in ((2, 0.2), (2, 0.7), (3, 0.5))
    ] * 3
    report = synthetic_service.execute_batch(queries, planner="tcombined")
    assert len(report.succeeded) == len(queries)

    serial = Session(
        synthetic_service.session.catalog, stats_sample_size=400
    )
    for item, query in zip(report, queries):
        expected = serial.execute(query, planner="tcombined")
        assert item.result.column_names == expected.column_names
        assert item.result.rows == expected.rows


def test_single_flight_coalesces_identical_concurrent_queries(synthetic_service):
    synthetic_service.plan_cache.invalidate()
    insertions_before = synthetic_service.plan_cache.stats.insertions
    query = make_dnf_query(num_root_clauses=2, selectivity=0.4)
    report = synthetic_service.execute_batch([query] * 8, planner="tcombined")
    assert len(report.succeeded) == 8
    assert synthetic_service.plan_cache.stats.insertions == insertions_before + 1


def test_batch_reports_errors_without_poisoning_the_batch(service):
    report = service.execute_batch([SQL, "SELECT FROM nonsense", SQL])
    assert report[0].ok and report[2].ok
    assert not report[1].ok
    assert report[1].error is not None
    assert not report[1].timed_out
    assert len(report.failed) == 1


def test_batch_timeout_marks_item(service, monkeypatch):
    original = service.session.execute_prepared

    def slow_execute(prepared, **kwargs):
        time.sleep(0.5)
        return original(prepared, **kwargs)

    monkeypatch.setattr(service.session, "execute_prepared", slow_execute)
    report = service.execute_batch([SQL], timeout=0.05)
    assert report[0].timed_out
    assert not report[0].ok
    assert len(report.timed_out) == 1


def test_batch_aggregates(service):
    report = service.execute_batch([SQL, SQL])
    assert len(report) == 2
    assert report.queries_per_second > 0
    totals = report.total_metrics()
    assert totals.output_rows == sum(item.result.metrics.output_rows for item in report)


def test_queries_per_second_guards_against_zero_wall_clock(service):
    from repro.service.service import BatchItem, BatchReport

    result = service.execute(SQL)
    item = BatchItem(index=0, query=SQL, planner="tcombined", result=result)
    # A batch of cached sub-resolution queries can clock wall_seconds == 0.0
    # on coarse timers; the rate must degrade to 0.0, not divide by zero.
    assert BatchReport(items=[item], wall_seconds=0.0).queries_per_second == 0.0
    assert BatchReport(items=[item], wall_seconds=-1.0).queries_per_second == 0.0
    assert BatchReport(items=[item], wall_seconds=0.5).queries_per_second == 2.0


def test_cache_metrics_include_feedback_observation_count(synthetic_session):
    with QueryService(synthetic_session, feedback=True) as feedback_service:
        query = make_dnf_query(num_root_clauses=2, selectivity=0.4)
        feedback_service.execute(query, planner="tcombined")
        metrics = feedback_service.cache_metrics()
    feedback = metrics["feedback"]
    assert feedback["observations"] >= 1
    assert feedback["entries"] >= 1
    assert "replans" in feedback


# --------------------------------------------------------------------------- #
# PlanCache unit behaviour
# --------------------------------------------------------------------------- #
def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # freshen "a"; "b" is now LRU
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_plan_cache_invalidate_and_stats():
    cache = PlanCache(capacity=4)
    assert cache.get("missing") is None
    cache.put("a", 1)
    cache.get("a")
    cache.invalidate()
    assert cache.get("a") is None
    stats = cache.stats.as_dict()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["invalidations"] == 1
    assert 0.0 < stats["hit_rate"] < 1.0


def test_plan_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_service_eviction_under_tiny_capacity():
    with QueryService(Session(movie_catalog()), plan_cache_size=1) as tiny:
        tiny.execute(SQL)
        tiny.execute(SQL, planner="bdisj")  # evicts the tcombined plan
        assert tiny.plan_cache.stats.evictions == 1
        assert not tiny.execute(SQL).cache_hit
