"""Compaction is one more delta: carried structures equal fresh builds.

Covers ``Column.distinct_count`` against ``np.unique``, the pure ``compacted``
functions against fresh builds, and — over generated sequences of durable
appends / deletes / compactions (with commits landing mid-fold) — that after
every ``Compactor.run()`` the dictionaries, indexes, zone maps, manifest
statistics and collected statistics of the live catalog *and* of the dataset
re-read from disk are array-equal to those of a freshly built table holding
the same rows.  The deterministic gate at the end counts calls, not time.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Catalog, QueryService, Session, Table
from repro.access.dictionary import (
    DictionaryEncoding,
    _worth_encoding,
    cached_dictionary,
    table_dictionary,
)
from repro.access.indexes import BitmapIndex, SortedIndex, build_index
from repro.access.manager import ensure_access_manager
from repro.access.zonemap import build_zone_map
from repro.mutation.compact import Compactor
from repro.stats.table_stats import collect_table_stats
from repro.storage.column import Column, ColumnType
from repro.storage.disk import _column_manifest_entry, _read_manifest, load_catalog, save_catalog

NAN = float("nan")


def _same_arrays(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


# --------------------------------------------------------------------------- #
# (a) Column.distinct_count == len(np.unique(valid))
# --------------------------------------------------------------------------- #
_ARRAYS = {
    "int": st.lists(st.integers(-4, 4), max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    "wide": st.lists(
        st.sampled_from([-(2**62), -7, 0, 1, 2**40, 2**62]), max_size=12
    ).map(lambda v: np.array(v, dtype=np.int64)),  # span > 8 x rows
    "uint": st.lists(st.integers(0, 9), max_size=40).map(lambda v: np.array(v, dtype=np.uint32)),
    "bool": st.lists(st.booleans(), max_size=20).map(lambda v: np.array(v, dtype=np.bool_)),
    "float": st.lists(
        st.sampled_from([-1.5, 0.0, 2.0, NAN, float("inf")]), max_size=30
    ).map(lambda v: np.array(v, dtype=np.float64)),
    "object": st.lists(st.sampled_from(["", "a", "b", "ba", "~"]), max_size=30).map(
        lambda v: np.array(v, dtype=object)
    ),
}


@st.composite
def _values_and_nulls(draw):
    values = draw(_ARRAYS[draw(st.sampled_from(sorted(_ARRAYS)))])
    nulls = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return values, np.array(nulls, dtype=np.bool_)


@settings(max_examples=300, deadline=None)
@given(_values_and_nulls())
@example((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.bool_)))  # empty
@example((np.array([5, 5, 7]), np.ones(3, dtype=np.bool_)))  # all-NULL
@example((np.array([0, 10**9, 3, 3]), np.zeros(4, dtype=np.bool_)))  # span > 8 x rows
@example((np.array([True, True]), np.zeros(2, dtype=np.bool_)))
def test_distinct_count_matches_np_unique(drawn):
    values, nulls = drawn
    column = Column("c", values, null_mask=nulls)
    assert column.distinct_count() == len(np.unique(column.data[~column.null_mask]))


# --------------------------------------------------------------------------- #
# (b) the pure functions: compacted == fresh build over the surviving rows
# --------------------------------------------------------------------------- #
_CELLS = {
    ColumnType.STRING: st.sampled_from(["", "a", "b", "ba", "m", "~"]),
    ColumnType.FLOAT: st.sampled_from([-1.5, 0.0, 2.0, 7.25, NAN, float("inf")]),
    ColumnType.INT: st.integers(-3, 3),
}


@st.composite
def _column_and_survivors(draw):
    ctype = draw(st.sampled_from(list(_CELLS)))
    values = draw(st.lists(st.one_of(st.none(), _CELLS[ctype]), max_size=24))
    keep = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return ctype, values, keep


@settings(max_examples=300, deadline=None)
@given(_column_and_survivors())
@example((ColumnType.STRING, ["a", "b", "a", None], [True, False, True, True]))  # "b" vanishes
@example((ColumnType.STRING, ["a", "b"], [False, False]))  # nothing survives
@example((ColumnType.FLOAT, [NAN, 2.0, None, 2.0], [True, True, True, False]))
@example((ColumnType.INT, [3, 1, 3, 1], [True, True, True, True]))  # delete-free
def test_compacted_equals_fresh_build(drawn):
    ctype, values, keep = drawn
    live = np.flatnonzero(np.array(keep, dtype=bool))
    column = Column("c", values, ctype=ctype)
    survivors = Column("c", [values[i] for i in live], ctype=ctype)

    encoding = DictionaryEncoding.encode(column)
    codes_before = encoding.codes.copy()
    compacted = encoding.compacted(live)
    fresh = DictionaryEncoding.encode(survivors)
    assert np.array_equal(encoding.codes, codes_before)  # self not mutated
    _same_arrays(
        {"values": compacted.values, "codes": compacted.codes},
        {"values": fresh.values, "codes": fresh.codes},
    )
    bitmap = BitmapIndex.build(column)
    _same_arrays(bitmap.compacted(live).to_arrays(), BitmapIndex.build(survivors).to_arrays())
    assert bitmap.compacted(live, compacted).dictionary is compacted
    ordered = SortedIndex.build(column)
    _same_arrays(ordered.compacted(live).to_arrays(), SortedIndex.build(survivors).to_arrays())
    assert ordered.size == len(values)


# --------------------------------------------------------------------------- #
# (c) sequences of appends / deletes / compactions on a durable dataset
# --------------------------------------------------------------------------- #
PAGE = 4
TYPES = {
    "id": ColumnType.INT,
    "s": ColumnType.STRING,  # bitmap index: its sidecar carries the dictionary
    "k": ColumnType.STRING,  # sorted index: only the live table holds a dictionary
    "n": ColumnType.INT,  # sorted index, NULLs
    "f": ColumnType.FLOAT,  # bitmap index, NaN and NULLs
    "g": ColumnType.FLOAT,  # zone map only
    "b": ColumnType.BOOL,
}
INDEXES = {"s": "bitmap", "k": "sorted", "n": "sorted", "f": "bitmap"}
SAVED_ZONE_MAPS = ("g", "s")  # built before the save: they get sidecars
LIVE_ZONE_MAPS = ("n", "id")  # built on the served catalog only

_row = st.fixed_dictionaries(
    {
        "s": st.sampled_from([None, "a", "b", "c"]),
        "k": st.sampled_from([None, "x", "y"]),
        "n": st.one_of(st.none(), st.integers(-1, 4)),
        "f": st.sampled_from([None, NAN, 0.25, 0.5, 2.0]),
        "g": st.sampled_from([None, NAN, -1.0, 0.75, 3.5]),
        "b": st.sampled_from([None, True, False]),
    }
)
_picks = st.lists(st.integers(0, 999), max_size=5)
#: ``("append", rows)`` | ``("delete", picks)`` | ``("compact", rows, picks, later)``
#: — while a compact op's fold runs, one commit appends its rows and deletes
#: its picks, and a second deletes the ``later`` picks, which may hit a row
#: the first appended.
_op = st.one_of(
    st.tuples(st.just("append"), st.lists(_row, min_size=1, max_size=6)),
    st.tuples(st.just("delete"), _picks),
    st.tuples(st.just("compact"), st.lists(_row, max_size=3), _picks, _picks),
)


def _base_rows() -> list[dict]:
    return [
        {
            "id": i,
            "s": ["a", "b", None, "a", "c", "b"][i % 6],
            "k": ["x", "y", "x"][i % 3],
            "n": [0, 1, 2, None, 3][i % 5],
            "f": [0.25, NAN, 2.0, None][i % 4],
            "g": [3.5, None, -1.0, NAN, 0.75][i % 5],
            "b": [True, False, None][i % 3],
        }
        for i in range(12)
    ]


def _table(name: str, rows: list[dict]) -> Table:
    return Table(
        name,
        [
            Column(column, [row[column] for row in rows], ctype=ctype, page_size=PAGE)
            for column, ctype in TYPES.items()
        ],
    )


def _dims() -> Table:
    return Table("dims", [Column("did", np.arange(6)), Column("weight", np.arange(6) / 8.0)])


def _rebuilt(table: Table, positions=None) -> Table:
    """``table``'s rows (all physical ones, or those at ``positions``) built afresh."""
    if positions is None:
        positions = np.arange(table.num_rows)
    return Table(
        table.name,
        [
            Column(
                column.name,
                [column.values_list()[i] for i in positions],
                ctype=column.ctype,
                page_size=column.page_size,
            )
            for column in table.columns()
        ],
    )


def _live_positions(table: Table) -> np.ndarray:
    mask = table.delete_mask
    return np.arange(table.num_rows) if mask is None else np.flatnonzero(~mask)


READS = [
    "SELECT t.id FROM t AS t WHERE t.s = 'b'",
    "SELECT t.id FROM t AS t WHERE t.n BETWEEN 1 AND 3",
    "SELECT t.id FROM t AS t WHERE (t.s = 'b' AND t.g < 0.8) OR t.n < 1 OR t.k = 'y'",
    "SELECT t.id, d.weight FROM t AS t JOIN dims AS d ON t.n = d.did "
    "WHERE t.n BETWEEN 0 AND 3 AND d.weight >= 0.0",
]


def _assert_structures_fresh(catalog: Catalog, zone_columns, exact_stats: bool) -> None:
    """Every structure of ``catalog``'s ``t`` equals a build over its physical rows.

    ``exact_stats``: the table is a fold with no rows appended on top, so its
    statistics are a fresh table's too (an append merges upper bounds).
    """
    table = catalog.get("t")
    fresh = _rebuilt(table)
    manager = catalog.access_manager
    built = manager.stats.as_dict()
    for column, kind in INDEXES.items():
        carried = manager.index_for("t", column)
        assert carried.kind == kind
        _same_arrays(carried.to_arrays(), build_index(fresh.column(column), kind).to_arrays())
    held = {z.column_name: z for name, z in manager.zone_maps_built() if name == "t"}
    assert set(zone_columns) <= set(held)
    for column, zone_map in held.items():
        _same_arrays(zone_map.to_arrays(), build_zone_map(fresh.column(column)).to_arrays())
    assert manager.stats.as_dict() == built  # nothing above had to be built
    for column in ("s", "k"):
        carried = cached_dictionary(table, column)
        if carried is not None:
            expected = table_dictionary(fresh, column)
            _same_arrays(
                {"values": carried.values, "codes": carried.codes},
                {"values": expected.values, "codes": expected.codes},
            )
            assert table.column(column).distinct_count() == carried.num_values
    if cached_dictionary(table, "s") is not None:
        assert manager.index_for("t", "s").dictionary is cached_dictionary(table, "s")
    if exact_stats:
        observable = _rebuilt(table, _live_positions(table))
        assert repr(collect_table_stats(table)) == repr(collect_table_stats(observable))


def _assert_reads_match_oracle(catalog: Catalog) -> None:
    table = catalog.get("t")
    oracle = Session(Catalog([_rebuilt(table, _live_positions(table)), _dims()]))
    session = Session(catalog)
    for sql in READS:
        expected = oracle.execute(sql, planner="bdisj").rows
        assert sorted(session.execute(sql).rows) == sorted(expected)


class _CommitMidFold(Compactor):
    """A compactor whose fold is overtaken by commits before the swap."""

    def __init__(self, root, catalog, commit) -> None:
        super().__init__(root, catalog=catalog)
        self._commit = commit

    def _stage_access_paths(self, *args):
        staged = super()._stage_access_paths(*args)
        self._commit()
        return staged


def _run_scenario(ops, root: Path) -> None:
    built = Catalog([_table("t", _base_rows()), _dims()])
    manager = ensure_access_manager(built)
    for column, kind in INDEXES.items():
        manager.create_index("t", column, kind=kind)
    for column in SAVED_ZONE_MAPS:
        manager.zone_map("t", column)
    save_catalog(built, root)
    catalog = load_catalog(root, durable=True)
    manager = catalog.access_manager
    try:
        for column in LIVE_ZONE_MAPS:
            manager.zone_map("t", column)
        assert table_dictionary(catalog.get("t"), "k") is not None  # a reader encoded it
        next_id = [100]

        def commit(rows, picks) -> None:
            live = _live_positions(catalog.get("t"))
            doomed = sorted({int(live[pick % live.size]) for pick in picks}) if live.size else []
            if not rows and not doomed:
                return
            batch = catalog.begin_mutation()
            if rows:
                batch.insert("t", [dict(row, id=next_id[0] + i) for i, row in enumerate(rows)])
                next_id[0] += len(rows)
            if doomed:
                batch.delete("t", positions=doomed)
            batch.commit()

        for op in [*ops, ("compact", [], [], [])]:
            if op[0] == "append":
                commit(op[1], [])
            elif op[0] == "delete":
                commit([], op[1])
            else:
                before = catalog.get("t")
                held = {c: cached_dictionary(before, c) is not None for c in ("s", "k")}
                zone_columns = {
                    z.column_name for name, z in manager.zone_maps_built() if name == "t"
                }
                built_before = (manager.stats.indexes_built, manager.stats.zone_maps_built)
                def mid_fold(op=op) -> None:
                    commit(op[1], op[2])
                    commit([], op[3])

                summary = _CommitMidFold(root, catalog, mid_fold).run()
                assert summary["rows_reclaimed"] == before.num_deleted
                table = catalog.get("t")
                folded_only = bool(summary["rows_reclaimed"]) and not op[1]
                _assert_structures_fresh(catalog, zone_columns, folded_only)

                # The folded base on disk: manifest statistics of a fresh table.
                base = load_catalog(root, snapshot=0).get("t")
                entry = next(e for e in _read_manifest(root)["tables"] if e["name"] == "t")
                assert entry["num_rows"] == base.num_rows
                fresh_base = _rebuilt(base)
                assert entry["columns"] == [
                    _column_manifest_entry(column) for column in fresh_base.columns()
                ]
                # A dictionary something held is carried, not dropped for the next
                # reader to re-sort, wherever a fresh table would have one.
                for column in ("s", "k"):
                    if (
                        held[column]
                        and summary["rows_reclaimed"]
                        and _worth_encoding(fresh_base.column(column))
                        and _worth_encoding(table.column(column))
                    ):
                        assert cached_dictionary(table, column) is not None
                _assert_reads_match_oracle(catalog)
                assert (manager.stats.indexes_built, manager.stats.zone_maps_built) == built_before
                # The dataset re-read from disk (sidecars extended over the tail).
                reread = load_catalog(root)
                assert reread.get("t").num_rows == table.num_rows
                _assert_structures_fresh(reread, SAVED_ZONE_MAPS, not op[1])
                _assert_reads_match_oracle(reread)
    finally:
        catalog.durability.reset_writer()


@settings(max_examples=30, deadline=None)
@given(st.lists(_op, max_size=6))
@example([("delete", [1, 7]), ("compact", [], [], [])])  # every "b" row: the value vanishes
@example([("delete", [4, 5, 6, 7]), ("compact", [], [], [])])  # every row of page 1
@example(  # delete-free
    [("append", [{"s": "c", "k": "x", "n": 4, "f": 2.0, "g": None, "b": True}])]
)
@example(  # a commit lands mid-fold: non-empty tail, with a new value and a delete in it
    [
        ("delete", [0, 3]),
        (
            "compact",
            [{"s": "0", "k": "y", "n": None, "f": NAN, "g": 9.0, "b": None}],
            [2],
            [],
        ),
    ]
)
@example(  # two commits land mid-fold: the second deletes the row the first appended
    [
        ("delete", [0, 3]),
        ("compact", [{"s": "a", "k": "x", "n": 1, "f": 0.5, "g": None, "b": True}], [], [10]),
    ]
)
@example([("delete", list(range(12))), ("compact", [], [], [])])  # nothing survives
def test_compaction_carries_every_structure(ops):
    with tempfile.TemporaryDirectory() as scratch:
        _run_scenario(ops, Path(scratch) / "data")


def test_the_named_examples_do_what_they_say():
    """The ``@example`` literals above really hit the cases they are named after."""
    base = _table("t", _base_rows())
    assert [i for i, v in enumerate(base.column("s").values_list()) if v == "b"] == [1, 5, 7, 11]
    assert PAGE == 4 and base.num_rows == 12
    # After deleting positions 0 and 3 and appending one row mid-fold, the
    # live positions are 1, 2, 4..11, 12: pick 10 is the appended row.
    live_mid_fold = [p for p in range(base.num_rows) if p not in (0, 3)] + [base.num_rows]
    assert live_mid_fold[10] == base.num_rows


# --------------------------------------------------------------------------- #
# (d) the gate is a call count, not a clock
# --------------------------------------------------------------------------- #
ROWS = 400
CATEGORIES = 8


def _events_catalog() -> Catalog:
    rng = np.random.default_rng(5)
    cat = rng.integers(0, CATEGORIES, ROWS)
    events = Table(
        "events",
        [
            Column("id", np.arange(ROWS), page_size=50),
            Column("category", [f"cat_{c:02d}" for c in cat], page_size=50),
            Column("cat_id", cat, page_size=50),
            Column("ts", rng.integers(0, ROWS, ROWS), page_size=50),
            Column("value", rng.random(ROWS), page_size=50),
        ],
    )
    dims = Table(
        "dims",
        [Column("did", np.arange(CATEGORIES + 1)), Column("weight", rng.random(CATEGORIES + 1))],
    )
    catalog = Catalog([events, dims])
    manager = ensure_access_manager(catalog)
    manager.create_index("events", "category", kind="bitmap")
    manager.create_index("events", "ts", kind="sorted")
    return catalog


#: The four ``ingest_serve`` templates (point, range, disjunctive, join).
TEMPLATES = [
    "SELECT e.id FROM events AS e WHERE e.category = 'cat_03'",
    "SELECT e.id, e.value FROM events AS e WHERE e.ts BETWEEN 100 AND 140",
    "SELECT e.id FROM events AS e "
    "WHERE (e.category = 'cat_03' AND e.value < 0.5) OR e.ts < 20",
    "SELECT e.id, d.weight FROM events AS e JOIN dims AS d ON e.cat_id = d.did "
    "WHERE e.ts BETWEEN 100 AND 200 AND d.weight >= 0.0",
]


def test_compaction_and_the_reads_after_it_sort_nothing(tmp_path, monkeypatch):
    save_catalog(_events_catalog(), tmp_path / "data")
    catalog = load_catalog(tmp_path / "data", durable=True)
    service = QueryService(Session(catalog))
    try:
        for cycle in range(3):  # ingest_serve's cycle: commit (+ delete), reads
            def stage(batch, cycle=cycle):
                batch.insert(
                    "events",
                    [
                        {
                            "id": ROWS + 10 * cycle + i,
                            "category": f"cat_{(cycle + i) % CATEGORIES:02d}",
                            "cat_id": (cycle + i) % CATEGORIES,
                            "ts": (37 * i + cycle) % ROWS,
                            "value": i / 10.0,
                        }
                        for i in range(10)
                    ],
                )
                batch.delete("events", positions=[3 * cycle, 3 * cycle + 1])

            service.execute_mutation(stage)
            for sql in TEMPLATES:
                service.execute(sql)

        encodes, object_sorts = [], []
        original_encode = DictionaryEncoding.encode.__func__
        monkeypatch.setattr(
            DictionaryEncoding,
            "encode",
            classmethod(
                lambda cls, column: encodes.append(column.name) or original_encode(cls, column)
            ),
        )
        for name in ("unique", "sort", "argsort"):
            original = getattr(np, name)

            def spy(array, *args, _name=name, _original=original, **kwargs):
                seen = np.asarray(array)
                if seen.dtype == object and seen.size >= ROWS // 2:
                    object_sorts.append(_name)
                return _original(array, *args, **kwargs)

            monkeypatch.setattr(np, name, spy)

        stats = catalog.access_manager.stats
        built = (stats.indexes_built, stats.zone_maps_built)
        summary = service.compact()
        assert summary["rows_reclaimed"] == 6
        rows = [sorted(service.execute(sql).rows) for sql in TEMPLATES]
        assert encodes == []
        assert object_sorts == []
        assert (stats.indexes_built, stats.zone_maps_built) == built
        monkeypatch.undo()

        reference = Session(catalog)
        assert rows == [sorted(reference.execute(sql, planner="bdisj").rows) for sql in TEMPLATES]
        assert catalog.get("events").num_rows == ROWS + 30 - 6
    finally:
        service.close()
        catalog.durability.reset_writer()


# --------------------------------------------------------------------------- #
# (e) the distinct count does not drift commit over commit
# --------------------------------------------------------------------------- #
def test_commits_of_existing_values_leave_the_distinct_count_exact():
    tags = [f"t{i % 64:02d}" for i in range(200)]
    catalog = Catalog([Table("t", [Column("id", np.arange(200)), Column("tag", tags)])])
    service = QueryService(Session(catalog))
    sql = "SELECT t.id FROM t AS t WHERE t.tag = 't03'"
    try:
        service.execute(sql)  # plan, statistics, the dictionary
        for commit_number in range(3):  # the seed used to go 64 -> 128 -> 192 -> 256
            start = 200 + 100 * commit_number
            rows = [{"id": start + i, "tag": f"t{i % 64:02d}"} for i in range(100)]
            catalog.begin_mutation().insert("t", rows).commit()
            table = catalog.get("t")
            fresh = Table("t", [Column(c.name, c.values_list()) for c in table.columns()])
            assert fresh.column("tag").distinct_count() == 64
            assert table.column("tag").distinct_count() == 64
            assert service.stats_cache.table_stats(table).columns["tag"].distinct_count == 64
            assert _worth_encoding(table.column("tag")) and _worth_encoding(fresh.column("tag"))
            assert cached_dictionary(table, "tag") is not None
            reference = Session(catalog).execute(sql, planner="bdisj")
            assert sorted(service.execute(sql).rows) == sorted(reference.rows)
    finally:
        service.close()
