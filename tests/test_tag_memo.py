"""A re-plan served from a session's tag-algebra memo equals a fresh plan.

``Session.tag_memo`` keeps each predicate's tree and operator tag maps across
prepares (:class:`repro.core.tagmap.TagAlgebraMemo`).  Tag maps depend only on
the predicate, the strategy, the logic and the plan's shape, so a prepare that
reuses them must choose the same plan, at the same ``repr``-exact cost, with
the same per-node rows and tag-map entries, as a session that has never seen
the query: on the 33 JOB queries and the golden synthetic queries (two-valued,
their tables hold no NULL), on random queries over NULL-bearing tables
(three-valued), under both tag strategies, after a commit that moves
estimates, and with several threads planning one predicate at once.  The memo
is bounded like the plan cache, and a re-plan that hits it builds no predicate
tree for the cycle collector.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro import Session
from repro.core.predtree import PredNode
from repro.engine.session import PLANNERS
from repro.service.plan_cache import DEFAULT_PLAN_CACHE_SIZE
from repro.testing.datagen import generate_random_catalog
from repro.testing.querygen import RandomQueryConfig, generate_random_query
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog

from tests.conftest import PAPER_QUERY_SQL
from tests.test_golden_plans import synthetic_queries, tag_map_lines


def job_catalog():
    return generate_imdb_catalog(scale=0.05, seed=7)


def random_queries(catalog) -> list:
    return [generate_random_query(catalog, RandomQueryConfig(seed=seed)) for seed in range(12)]


@pytest.fixture(scope="module")
def workloads():
    return {
        "job": (job_catalog(), job_query_groups()),
        "synthetic": (
            generate_synthetic_catalog(SyntheticConfig(table_size=2000, seed=11)),
            synthetic_queries(),
        ),
        # Every attribute column holds NULLs: these plan three-valued.
        "nulls": (nulls := generate_random_catalog(), random_queries(nulls)),
    }


def planned(session: Session, query, planner: str = "tcombined", naive: bool | None = None):
    """What ``session.prepare`` plans for ``query``, with its estimated cost,
    and the work its tag-map builder did."""
    context = session._planner_context(query, naive)
    return PLANNERS[planner](context).plan(), context.tag_maps.work


def outcome(result) -> dict:
    """Everything a plan is judged by; nodes by pre-order position."""
    projection = result.annotations.projection
    return {
        "plan": result.description(),
        "estimated_cost": repr(result.estimated_cost),
        "rows": [result.node_rows.get(node.node_id) for node in result.plan.walk()],
        "tag_maps": tag_map_lines(result),
        "allowed": sorted(map(repr, projection.allowed)),
        "residual": sorted(map(repr, projection.residual)),
    }


@pytest.mark.parametrize("workload", ["job", "synthetic", "nulls"])
def test_warm_memo_plans_like_a_fresh_session(workloads, workload):
    catalog, queries = workloads[workload]
    # One warm session plans every query under both strategies (naive_tags
    # is a per-call option), so their memo entries sit side by side.
    warm = Session(catalog)
    for naive in (False, True):
        for query in queries:
            planned(warm, query, naive=naive)
    for naive in (False, True):
        for query in queries:
            again, work = planned(warm, query, naive=naive)
            assert work["tagmap_nodes_built"] == work["generalizations_computed"] == 0
            fresh, _work = planned(Session(catalog), query, naive=naive)
            assert outcome(again) == outcome(fresh), (query.name, naive)


def test_after_a_commit_a_partly_hit_memo_plans_like_a_fresh_session():
    catalog = job_catalog()
    warm = Session(catalog)
    queries = job_query_groups()
    before = {query.name: outcome(planned(warm, query)[0]) for query in queries}
    batch = catalog.begin_mutation()
    batch.delete("title", where="title.production_year > 1990")
    batch.commit()
    built = fresh_built = 0
    moved = 0
    for query in queries:
        again, work = planned(warm, query)
        fresh, fresh_work = planned(Session(catalog), query)
        assert outcome(again) == outcome(fresh), query.name
        built += work["tagmap_nodes_built"]
        fresh_built += fresh_work["tagmap_nodes_built"]
        moved += outcome(again) != before[query.name]
    assert moved > 0  # the commit moved estimates ...
    assert 0 < built < fresh_built  # ... so some candidates are new, most are not


def test_threads_planning_one_predicate_agree_with_serial_plans():
    """More threads than cores fill one memo entry at once, switching often."""
    catalog = job_catalog()
    planners = ("tpullup", "titerpush", "tpushdown", "tcombined")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for query in job_query_groups()[:6]:
            serial = {
                planner: outcome(planned(Session(catalog), query, planner)[0])
                for planner in planners
            }
            shared = Session(catalog)
            barrier = threading.Barrier(len(planners), timeout=60)
            results = {}

            def run(planner):
                barrier.wait()
                results[planner] = outcome(planned(shared, query, planner)[0])

            threads = [threading.Thread(target=run, args=(planner,)) for planner in planners]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == serial, query.name
    finally:
        sys.setswitchinterval(interval)


def test_memo_is_a_bounded_lru(paper_catalog):
    session = Session(paper_catalog)

    def built(year: int) -> int:
        sql = f"SELECT t.id FROM title AS t WHERE t.production_year > {year}"
        return session.prepare(sql).planning_work["tagmap_nodes_built"]

    assert all(built(year) > 0 for year in range(DEFAULT_PLAN_CACHE_SIZE))
    assert len(session.tag_memo) == DEFAULT_PLAN_CACHE_SIZE
    assert built(0) == 0  # a hit, now the most recently used
    assert built(DEFAULT_PLAN_CACHE_SIZE) > 0  # evicts the least recently used: 1
    assert len(session.tag_memo) == DEFAULT_PLAN_CACHE_SIZE
    assert built(0) == 0
    assert built(1) > 0


def test_replanning_leaves_no_predicate_tree_to_the_cycle_collector(paper_catalog):
    session = Session(paper_catalog)
    session.execute(PAPER_QUERY_SQL)
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    try:
        for _ in range(5):
            session.execute(PAPER_QUERY_SQL)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sum(isinstance(obj, PredNode) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    assert leaked == 0
