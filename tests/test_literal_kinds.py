"""Values of different kinds meet exactly as the oracle's Python comparison says.

An ``IN`` list is matched value by value, never cast into the column's dtype,
and a join between a string key and a number key is rejected by name before
any work is done — under every planner, with and without an index.
"""

from __future__ import annotations

import pytest

from repro import Catalog, Session, Table
from repro.access.manager import ensure_access_manager
from repro.engine.session import PLANNERS
from repro.expr.ast import ExprError
from repro.sql import parse_query
from repro.storage.column import ColumnType
from repro.testing.oracle import evaluate_oracle

IN_LISTS = ("1.5", "2.9, 3", "1, 'x'", "1, NULL", "3, 3.0", "'2'", "NULL", "-1, 4")


@pytest.fixture(scope="module", params=[False, True], ids=["no-index", "sorted-index"])
def id_catalog(request) -> Catalog:
    # Three pages, so a selective IN list is answered by the index when one exists.
    table = Table.from_dict(
        "t", {"id": [*range(1, 3000), None]}, types={"id": ColumnType.INT}
    )
    catalog = Catalog([table])
    if request.param:
        ensure_access_manager(catalog).create_index("t", "id", kind="sorted")
    return catalog


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_in_list_membership_is_exact(id_catalog, planner):
    session = Session(id_catalog, stats_sample_size=64)
    for in_list in IN_LISTS:
        for negated in ("", "NOT "):
            sql = f"SELECT t.id FROM t AS t WHERE t.id {negated}IN ({in_list})"
            expected = sorted(evaluate_oracle(id_catalog, parse_query(sql)))
            assert sorted(session.execute(sql, planner).rows) == expected, sql


#: A NULL entry makes a miss UNKNOWN: over a = 1, 2, 3 the negated lists keep
#: no row, and the implication from ``a = 2`` must not refute the list.
NULL_ENTRY_SQL = {
    "SELECT t.a FROM t AS t WHERE t.a NOT IN (1, NULL)": [],
    "SELECT t.a FROM t AS t WHERE NOT (t.a IN (1, NULL))": [],
    "SELECT t.a FROM t AS t WHERE t.a IN (1, NULL) OR t.b = 30": [(1,), (3,)],
    "SELECT t.a FROM t AS t WHERE (t.a = 2 OR t.b < 0) AND NOT (t.a IN (1, NULL))": [],
}


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_a_null_in_entry_makes_a_miss_unknown(planner):
    catalog = Catalog([Table.from_dict("t", {"a": [1, 2, 3], "b": [10, 20, 30]})])
    session = Session(catalog, stats_sample_size=3)
    for sql, expected in NULL_ENTRY_SQL.items():
        query = parse_query(sql)
        # The column holds no NULL: only the list makes the plan three-valued.
        assert query.can_be_unknown(catalog), sql
        assert sorted(evaluate_oracle(catalog, query)) == expected, sql
        assert sorted(session.execute(sql, planner).rows) == expected, sql


def test_sorted_index_answers_the_in_lists(id_catalog):
    session = Session(id_catalog, stats_sample_size=64)
    indexed = ensure_access_manager(id_catalog).has_index("t", "id")
    for in_list in IN_LISTS:
        prepared = session.prepare(
            f"SELECT t.id FROM t AS t WHERE t.id IN ({in_list})", planner="tcombined"
        )
        choice = prepared.access_plan.choices["t"].kind
        assert (choice == "index") == indexed, in_list


def test_in_list_on_strings_matches_only_strings():
    table = Table.from_dict("s", {"v": ["1", "a", None]}, types={"v": ColumnType.STRING})
    catalog = Catalog([table])
    session = Session(catalog, stats_sample_size=3)
    for in_list in ("1", "1, 'a'", "NULL, 'a'", "1.0"):
        sql = f"SELECT s.v FROM s AS s WHERE s.v IN ({in_list})"
        expected = sorted(evaluate_oracle(catalog, parse_query(sql)))
        assert sorted(session.execute(sql, "tcombined").rows) == expected, sql


@pytest.mark.parametrize("planner", sorted(PLANNERS))
@pytest.mark.parametrize("where", ["", " WHERE t.id > 1 OR u.s = 'x'"])
def test_join_on_keys_of_different_kinds_is_rejected(planner, where):
    catalog = Catalog(
        [
            Table.from_dict("t", {"id": [1, 2, 3]}, types={"id": ColumnType.INT}),
            Table.from_dict("u", {"s": ["1", "2", "x"]}, types={"s": ColumnType.STRING}),
        ]
    )
    session = Session(catalog, stats_sample_size=3)
    sql = f"SELECT t.id FROM t AS t JOIN u AS u ON t.id = u.s{where}"
    with pytest.raises(ExprError, match=r"t\.id.*u\.s"):
        session.execute(sql, planner)
