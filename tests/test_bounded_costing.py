"""A bounded costing walk stops only for a candidate that has already lost.

TPullup and TIterPush cost each candidate with their running best as the
bound (:meth:`repro.core.planner.base.TaggedPlanner.cost`); the walk that
builds the candidate's tag maps and adds its cost terms gives up as soon as
the running total is strictly greater.  Over every candidate the two
searches cost on the 33 JOB queries, and for bounds below, at and above its
full cost, the bounded call must be abandoned exactly when the full cost
exceeds the bound, and otherwise agree with the unbounded call on the cost,
the per-node rows and every tag-map entry.
"""

from __future__ import annotations

import math

import pytest

from repro import Session
from repro.core.planner.iterpush import TIterPushPlanner
from repro.core.planner.pullup import TPullupPlanner
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

from tests.test_golden_plans import tag_map_lines

#: One JOB pass costs 422 candidates against a running best (TIterPush's
#: all-filters-up base plan has none); 217 of them lose: 210 are strictly
#: costlier and abandoned, 7 tie with the best and are costed in full.
BOUNDED_PER_PASS = 422
ABANDONED_PER_PASS = 210


def _recording(planner_class):
    """``planner_class`` recording every ``(plan, bound, result)`` it costs."""

    class Recording(planner_class):
        def cost(self, plan, bound=math.inf):
            result = super().cost(plan, bound)
            self.costed.append((plan, bound, result))
            return result

    return Recording


@pytest.fixture(scope="module")
def searched():
    """Every ``(planner, plan, bound, result)`` the two searches cost on JOB."""
    session = Session(generate_imdb_catalog(scale=0.05, seed=7))
    costed = []
    for query in job_query_groups():
        context = session._planner_context(query)
        for planner_class in (TPullupPlanner, TIterPushPlanner):
            planner = _recording(planner_class)(context)
            planner.costed = []
            planner.plan()
            costed.extend((planner, *call) for call in planner.costed)
    return costed


def test_searches_abandon_the_candidates_that_lost(searched):
    bounded = [result for _planner, _plan, bound, result in searched if bound < math.inf]
    assert len(bounded) == BOUNDED_PER_PASS
    assert sum(result is None for result in bounded) == ABANDONED_PER_PASS
    assert all(result is not None for _p, _plan, bound, result in searched if bound == math.inf)


def test_bounded_walk_is_exact(searched):
    for planner, plan, search_bound, _result in searched:
        full = planner.cost(plan)
        cost = full.estimated_cost
        near = (math.nextafter(cost, -math.inf), cost, math.nextafter(cost, math.inf))
        for bound in (0.0, cost / 2, *near, search_bound):
            bounded = planner.cost(plan, bound)
            assert (bounded is None) == (cost > bound), (plan, bound)
            if bounded is not None:
                assert repr(bounded.estimated_cost) == repr(cost)
                assert bounded.node_rows == full.node_rows
                assert tag_map_lines(bounded) == tag_map_lines(full)
