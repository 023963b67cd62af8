"""Execution options are one type, validated at the call that gives them."""

from __future__ import annotations

import pytest

from repro import Catalog, QueryService, Session, Table
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
