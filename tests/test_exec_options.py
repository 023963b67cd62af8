"""Execution and planning options are one type each, validated at the call
that gives them."""

from __future__ import annotations

import pytest

from repro import Catalog, QueryService, Session, Table
from repro.core.planner import CostParams, PlanOptions
from repro.core.planner.base import PLAN_OPTION_NAMES
from repro.engine.metrics import ExecOptions

SQL = "SELECT t.id FROM t AS t WHERE (t.v < 3) OR (t.v > 6)"


@pytest.fixture()
def catalog() -> Catalog:
    return Catalog([Table.from_dict("t", {"id": list(range(10)), "v": list(range(10))})])


@pytest.mark.parametrize("field", ("parallelism", "partitions", "shards"))
def test_out_of_range_option_rejected_where_it_is_given(catalog, field):
    message = f"{field} must be positive, got 0"
    with pytest.raises(ValueError, match=message):
        ExecOptions(**{field: 0})
    with pytest.raises(ValueError, match=message):
        Session(catalog, **{field: 0})
    session = Session(catalog)
    # At construction, not from inside the first execute().
    with pytest.raises(ValueError, match=message):
        QueryService(session, **{field: 0})
    prepared = session.prepare(SQL)
    with pytest.raises(ValueError, match=message):
        session.execute_prepared(prepared, **{field: 0})
    with pytest.raises(ValueError, match=message):
        session.execute(SQL, **{field: 0})


def test_unknown_option_is_a_type_error_naming_it(catalog):
    with pytest.raises(TypeError, match="'shard'"):
        Session(catalog, shard=2)
    session = Session(catalog)
    with pytest.raises(TypeError, match="'paralelism'"):
        session.execute_prepared(session.prepare(SQL), paralelism=2)
    with pytest.raises(TypeError, match="'partition'"):
        QueryService(session, partition=None)


def test_none_override_keeps_the_inherited_value(catalog):
    session = Session(catalog, partitions=3)
    assert session.options == ExecOptions(partitions=3)
    assert session.options.replace(partitions=None, shards=None) is session.options
    result = session.execute_prepared(session.prepare(SQL), partitions=None)
    assert result.metrics.morsels_executed == 3
    with QueryService(session, partitions=None, parallelism=2, feedback=True) as service:
        assert service.options == ExecOptions(
            parallelism=2, partitions=3, collect_feedback=True
        )
        assert service.execute(SQL).metrics.morsels_executed == 3
    assert session.options == ExecOptions(partitions=3)


@pytest.mark.parametrize("size", (0, -5))
def test_out_of_range_sample_size_rejected_at_construction(catalog, size):
    message = f"stats_sample_size must be positive, got {size}"
    with pytest.raises(ValueError, match=message):
        PlanOptions(stats_sample_size=size)
    # Not NumPy's "negative dimensions" (or a silently default-selectivity
    # plan) from inside the first execute().
    with pytest.raises(ValueError, match=message):
        Session(catalog, stats_sample_size=size)


def test_planning_options_are_type_checked_and_named(catalog):
    with pytest.raises(TypeError, match="cost_params must be a CostParams, got dict"):
        Session(catalog, cost_params={"alpha": 2.0})
    with pytest.raises(TypeError, match="'selectivty_mode'"):
        Session(catalog, selectivty_mode="measured")
    with pytest.raises(TypeError, match="'sample_size'"):
        PlanOptions().replace(sample_size=5)
    # The tag logic is derived from the data, never configured.
    with pytest.raises(TypeError, match="'three_valued'"):
        Session(catalog, three_valued=False)
    with pytest.raises(TypeError, match="unknown planning option 'three_valued'"):
        PlanOptions().replace(three_valued=False)


def test_each_override_reaches_the_one_type_that_declares_it(catalog):
    session = Session(
        catalog, stats_sample_size=7, naive_tags=True, shards=1, partitions=3
    )
    assert session.plan_options == PlanOptions(stats_sample_size=7, naive_tags=True)
    assert session.options == ExecOptions(partitions=3)
    # No name is declared by both types, so no override can reach both.
    assert not PLAN_OPTION_NAMES & set(vars(ExecOptions()))
    # None keeps the default; the same instance when nothing changes.
    assert Session(catalog, cost_params=None).plan_options == PlanOptions()
    assert session.plan_options.replace(naive_tags=None) is session.plan_options


def test_a_plan_carries_the_options_it_was_planned_under(catalog):
    session = Session(catalog, cost_params=CostParams(alpha=2.0), naive_tags=True)
    generalized = Session(catalog, cost_params=CostParams(alpha=2.0), naive_tags=False)
    # Planning work is a function of the options a plan was built under.
    work = session.prepare(SQL, naive_tags=False).planning_work
    assert work == generalized.prepare(SQL).planning_work
    assert work != session.prepare(SQL).planning_work
    assert session.execute(SQL).sorted_rows() == session.execute(
        SQL, naive_tags=False
    ).sorted_rows()
