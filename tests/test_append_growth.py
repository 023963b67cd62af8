"""Columns, dictionary codes and delete masks grow in place behind read-only views.

A commit that extends the newest version of a column writes only its segment
into the shared buffer's tail (``repro.storage.column.append_rows``); any
other extension copies.  These tests fence that: extended columns equal plain
concatenation, pinned snapshots keep reading byte-identical rows through 40
commits and a compaction, two catalogs sharing one table never see each
other's rows, published views refuse writes, pickles carry only the rows,
and a reload of 50 unapplied segments equals the catalog that committed
them.  Also here: ``None`` cells of an object array are NULLs.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import Catalog, QueryService, Session, Table
from repro.access.dictionary import DictionaryEncoding, table_dictionary
from repro.access.indexes import BitmapIndex
from repro.access.manager import ensure_access_manager
from repro.engine.session import PLANNERS
from repro.mutation.batch import extend_column
from repro.sql import parse_query
from repro.storage.column import Column, ColumnType
from repro.storage.disk import load_catalog, save_catalog
from repro.testing.datagen import generate_random_catalog
from repro.testing.oracle import evaluate_oracle
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.synthetic import generate_synthetic_catalog

ROWS = 300
CATEGORIES = 6

#: Per column type: values for a segment of ``m`` rows starting at ``start``.
SEGMENT_VALUES = {
    ColumnType.INT: lambda start, m: list(range(start, start + m)),
    ColumnType.FLOAT: lambda start, m: [0.5 * i for i in range(start, start + m)],
    ColumnType.BOOL: lambda start, m: [i % 3 == 0 for i in range(start, start + m)],
    ColumnType.STRING: lambda start, m: [f"s{i % 7}" for i in range(start, start + m)],
}


def _segment(ctype: ColumnType, start: int, m: int, nulls: bool) -> Column:
    values = SEGMENT_VALUES[ctype](start, m)
    if nulls:
        values = [None if i % 4 == 1 else value for i, value in enumerate(values)]
    return Column("c", values, ctype=ctype)


def _same_column(got: Column, want: Column) -> None:
    assert got.ctype is want.ctype
    assert got.data.dtype == want.data.dtype
    assert got.data.tolist() == want.data.tolist() or np.array_equal(
        got.data, want.data, equal_nan=True
    )
    assert np.array_equal(got.null_mask, want.null_mask)
    assert got.has_nulls() == want.has_nulls()
    assert got.values_list() == want.values_list() or got.ctype is ColumnType.FLOAT


# --------------------------------------------------------------------------- #
# The primitive: same values as a copy, in place on the tail, copies otherwise
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("nulls", [False, True], ids=["no-nulls", "nulls"])
@pytest.mark.parametrize("ctype", list(SEGMENT_VALUES), ids=lambda c: c.value)
def test_extend_column_equals_concatenation(ctype, nulls):
    column = _segment(ctype, 0, 40, nulls=False)
    pieces = [column]
    for step in range(12):
        segment = _segment(ctype, 40 + 5 * step, step % 4 * 3, nulls=nulls and step % 2 == 1)
        column = extend_column(column, segment)
        pieces.append(segment)
        concatenated = Column(
            "c",
            np.concatenate([piece.data for piece in pieces]),
            ctype=ctype,
            null_mask=np.concatenate([piece.null_mask for piece in pieces]),
        )
        _same_column(column, concatenated)
        # Merged statistics equal the ones a fresh column computes.
        assert column.min_max() == concatenated.min_max() or ctype is ColumnType.FLOAT
        assert column.distinct_count() >= concatenated.distinct_count()


def test_extending_the_newest_version_writes_in_place():
    first = Column("c", np.arange(64))
    second = extend_column(first, Column("c", [64, 65]))  # copies, with headroom
    third = extend_column(second, Column("c", [66, 67, 68]))
    assert np.shares_memory(second.data, third.data)
    assert np.shares_memory(second.null_mask, third.null_mask)
    assert second.data.tolist() == list(range(66))
    assert third.data.tolist() == list(range(69))


def test_extending_an_older_version_copies():
    base = extend_column(Column("c", np.arange(32)), Column("c", [32]))
    left = extend_column(base, Column("c", [100, 101]))
    right = extend_column(base, Column("c", [200]))  # base is no longer the tail
    assert not np.shares_memory(left.data, right.data)
    assert left.data.tolist()[-3:] == [32, 100, 101]
    assert right.data.tolist()[-2:] == [32, 200]
    assert base.data.tolist() == list(range(33))


def test_racing_extensions_of_one_version_each_keep_their_own_rows():
    # Segments large enough that NumPy copies them without the interpreter
    # lock: without the buffer's lock two threads would claim one tail.
    workers, rows, width = 4, 400_000, 20_000  # more workers than small-host cores
    base = extend_column(Column("c", np.arange(rows)), Column("c", [rows]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(40):
            barrier = threading.Barrier(workers)
            results: list = [None] * workers

            def extend(worker: int) -> None:
                barrier.wait(timeout=10)
                segment = Column("c", np.full(width, 10**7 * (worker + 1) + round_))
                results[worker] = extend_column(base, segment)

            threads = [threading.Thread(target=extend, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            for worker, result in enumerate(results):
                assert np.all(result.data[-width:] == 10**7 * (worker + 1) + round_)
                assert np.array_equal(result.data[: len(base)], base.data)
            # At most one extension wrote into the tail; the others copied.
            assert sum(np.shares_memory(base.data, r.data) for r in results) <= 1
            base = results[round_ % workers]
    finally:
        sys.setswitchinterval(interval)


def test_headroom_is_spent_before_a_copy():
    column = extend_column(Column("c", np.arange(160)), Column("c", [0]))
    views = [column]
    # Headroom max(m, n // 16) = 10 rows: ten 1-row appends stay in place.
    for _ in range(10):
        views.append(extend_column(views[-1], Column("c", [1])))
        assert np.shares_memory(views[-2].data, views[-1].data)
    views.append(extend_column(views[-1], Column("c", [2])))
    assert not np.shares_memory(views[-2].data, views[-1].data)
    assert [len(view) for view in views] == list(range(161, 173))


def test_extended_null_mask_is_adopted_without_a_scan():
    clean = extend_column(Column("c", [1.0, 2.0]), Column("c", [3.0]))
    assert not clean.has_nulls()
    dirty = extend_column(clean, Column("c", [None, 5.0], ctype=ColumnType.FLOAT))
    assert dirty.has_nulls() and dirty.null_mask.tolist() == [False] * 3 + [True, False]
    assert extend_column(dirty, Column("c", [6.0])).has_nulls()


def test_a_version_may_delete_rows_it_appends():
    """Compaction re-applies mid-fold commits: a delete can reach past the old rows."""
    table = Table("t", [Column("id", np.arange(4))])
    masked = table.next_version(table.columns(), np.array([0]))
    for old, deleted in [(table, [1, 5]), (masked, [5])]:
        column = extend_column(old.column("id"), Column("id", [4, 5]))
        grown = old.next_version([column], np.array(deleted))
        expected = np.zeros(6, dtype=np.bool_)
        expected[deleted] = True
        if old.delete_mask is not None:
            expected[:4] |= old.delete_mask
        assert grown.delete_mask.tolist() == expected.tolist()
        assert grown.num_deleted == int(expected.sum())
        assert not grown.delete_mask.flags.writeable
    assert table.delete_mask is None


def test_a_value_adding_segment_gathers_the_remapped_codes_like_a_fresh_encode():
    column = Column("c", ["b", None, "d", "b"], ctype=ColumnType.STRING)
    encoding = DictionaryEncoding.encode(column)
    for segment in (["c", None, "a"], ["b"], ["e", "a"]):
        grown = extend_column(column, Column("c", segment, ctype=ColumnType.STRING))
        encoding = encoding.extended(grown, len(column))
        fresh = DictionaryEncoding.encode(grown)
        assert encoding.values.tolist() == fresh.values.tolist()
        assert encoding.codes.tolist() == fresh.codes.tolist()
        column = grown


def test_published_views_are_read_only():
    catalog = _events_catalog()
    table_dictionary(catalog.get("events"), "category")
    for commit_number in range(3):
        batch = catalog.begin_mutation()
        batch.insert("events", _rows(ROWS + 10 * commit_number, 10))
        if commit_number == 1:
            batch.delete("events", positions=[2, 3])
        batch.commit()
    table = catalog.get("events")
    arrays = [table.column(name).data for name in table.column_names]
    arrays += [table.column(name).null_mask for name in table.column_names]
    arrays += [table_dictionary(table, "category").codes, table.delete_mask]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = array[1]


def test_bitmap_index_merges_segments_like_a_fresh_build():
    rng = np.random.default_rng(3)

    def strings(count: int, distinct: int) -> list:
        return [None if rng.random() < 0.15 else f"v{rng.integers(distinct)}" for _ in range(count)]

    column = Column("c", strings(500, 8), ctype=ColumnType.STRING)
    index = BitmapIndex.build(column)
    encoding = index.dictionary
    for step in range(30):
        segment = Column("c", strings(int(rng.integers(0, 40)), 30 if step == 17 else 8))
        old_rows = len(column)
        column = extend_column(column, segment)
        encoding = encoding.extended(column, old_rows)
        index = index.extended(column, old_rows, encoding)
        fresh = BitmapIndex.build(column)
        for got, want in [
            (index._order, fresh._order),
            (index._boundaries, fresh._boundaries),
            (index.null_positions, fresh.null_positions),
            (encoding.codes, fresh.dictionary.codes),
            (encoding.values, fresh.dictionary.values),
        ]:
            assert np.array_equal(got, want), step
    assert encoding.num_values > 8  # step 17 added values and remapped the codes
    assert np.array_equal(
        index.extended(column, len(column))._order,  # its own dictionary, no rows
        DictionaryEncoding.encode(column).grouped_positions()[0],
    )


# --------------------------------------------------------------------------- #
# Pickles carry the rows, not the capacity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("ctype", [ColumnType.INT, ColumnType.STRING], ids=lambda c: c.value)
def test_a_grown_column_pickles_only_its_rows(ctype):
    grown = _segment(ctype, 0, 2_000, nulls=False)
    for step in range(5):
        grown = extend_column(grown, _segment(ctype, 2_000 + 10 * step, 10, nulls=True))
    fresh = Column("c", grown.values_list(), ctype=ctype)
    payload = pickle.dumps(grown)
    assert len(payload) <= len(pickle.dumps(fresh)) + 128
    restored = pickle.loads(payload)
    _same_column(restored, fresh)
    # The restored column has no growth state: its next append copies.
    extended = extend_column(restored, Column("c", [None], ctype=ctype))
    assert not np.shares_memory(extended.data, restored.data)
    assert len(extended) == len(fresh) + 1


# --------------------------------------------------------------------------- #
# Catalog-level fences: snapshots, branches, reload
# --------------------------------------------------------------------------- #
def _events_catalog() -> Catalog:
    rng = np.random.default_rng(11)
    cat = rng.integers(0, CATEGORIES, ROWS)
    values = rng.random(ROWS)
    events = Table(
        "events",
        [
            Column("id", np.arange(ROWS), page_size=64),
            Column("category", [f"cat_{c}" for c in cat], page_size=64),
            Column("cat_id", cat, page_size=64),
            Column("value", values, page_size=64),
            Column("note", [None if v < 0.1 else "n" for v in values], page_size=64),
        ],
    )
    catalog = Catalog([events])
    manager = ensure_access_manager(catalog)
    manager.create_index("events", "category", kind="bitmap")
    manager.create_index("events", "cat_id", kind="sorted")
    return catalog


def _rows(start: int, count: int, category: str | None = None, note: str | None = "n") -> list:
    return [
        {
            "id": start + i,
            "category": category or f"cat_{(start + i) % CATEGORIES}",
            "cat_id": (start + i) % CATEGORIES,
            "value": ((start + i) % 10) / 10.0,
            "note": note,
        }
        for i in range(count)
    ]


def _table_state(table: Table) -> dict:
    """Every array a reader of ``table`` sees, as bytes (objects as lists)."""
    state = {"delete_mask": None if table.delete_mask is None else table.delete_mask.tobytes()}
    for column in table.columns():
        data = column.data
        state[column.name] = data.tolist() if data.dtype == object else data.tobytes()
        state[column.name + ".nulls"] = column.null_mask.tobytes()
    encoding = table_dictionary(table, "category")
    state["codes"] = encoding.codes.tobytes()
    state["values"] = encoding.values.tolist()
    return state


def _commit(catalog, number: int) -> None:
    """Commit ``number`` of a mix: append-only, +delete, new values, new NULLs."""
    batch = catalog.begin_mutation()
    start = 10_000 + 10 * number
    if number % 10 == 3:
        batch.insert("events", _rows(start, 5, category=f"new_{number:02d}"))
    elif number % 10 == 6:
        batch.insert("events", _rows(start, 5, note=None))
    else:
        batch.insert("events", _rows(start, 5))
    if number % 4 == 1:
        table = catalog.get("events")
        live = np.flatnonzero(~table.delete_mask) if table.has_deletes() else np.arange(3)
        batch.delete("events", positions=live[:2].tolist())
    batch.commit()


def test_a_pinned_snapshot_reads_its_own_rows_through_40_commits(tmp_path):
    save_catalog(_events_catalog(), tmp_path / "data")
    catalog = load_catalog(tmp_path / "data", durable=True)
    service = QueryService(Session(catalog))
    try:
        for number in range(3):  # give the pinned version growth buffers
            _commit(catalog, number)
        pinned = catalog.snapshot()
        before = _table_state(pinned.get("events"))
        for number in range(3, 43):
            _commit(catalog, number)
            if number == 20:
                assert service.compact()["rows_reclaimed"] > 0
            assert _table_state(pinned.get("events")) == before, number
        assert catalog.get("events").num_rows > pinned.get("events").num_rows
    finally:
        service.close()
        catalog.durability.reset_writer()


def test_two_catalogs_extending_one_table_never_see_each_others_rows():
    shared = _events_catalog()
    for number in range(2):  # the shared version is its buffers' tail
        _commit(shared, number)
    table = shared.get("events")
    left, right = Catalog([table]), Catalog([table])
    before = _table_state(table)

    batch = left.begin_mutation()
    batch.insert("events", _rows(50_000, 4, category="left"))
    batch.commit()
    batch = right.begin_mutation()
    batch.insert("events", _rows(60_000, 4, category="right"))
    batch.commit()

    left_table, right_table = left.get("events"), right.get("events")
    assert np.shares_memory(table.column("id").data, left_table.column("id").data)
    assert not np.shares_memory(left_table.column("id").data, right_table.column("id").data)
    assert left_table.column("id").data[-4:].tolist() == list(range(50_000, 50_004))
    assert right_table.column("id").data[-4:].tolist() == list(range(60_000, 60_004))
    assert left_table.column("category").values_list()[-1] == "left"
    assert right_table.column("category").values_list()[-1] == "right"
    assert "right" not in table_dictionary(left_table, "category").values
    assert "left" not in table_dictionary(right_table, "category").values
    assert _table_state(table) == before


def test_commits_grow_codes_and_mask_in_place_unless_they_rewrite_them():
    catalog = _events_catalog()
    _commit(catalog, 1)  # deletes: the mask gets a buffer
    for number, (category, delete) in enumerate(
        [(None, False), (None, False), ("brand_new", False), (None, True), (None, False)]
    ):
        old = catalog.get("events")
        old_codes = table_dictionary(old, "category").codes
        batch = catalog.begin_mutation()
        batch.insert("events", _rows(20_000 + 10 * number, 3, category=category))
        if delete:
            batch.delete("events", positions=np.flatnonzero(~old.delete_mask)[:1].tolist())
        batch.commit()
        new = catalog.get("events")
        codes = table_dictionary(new, "category").codes
        assert np.shares_memory(old_codes, codes) == (category is None), number
        assert np.shares_memory(old.delete_mask, new.delete_mask) == (not delete), number
        assert new.num_deleted == old.num_deleted + delete


def test_reload_of_50_unapplied_segments_equals_the_committing_catalog(tmp_path):
    root = tmp_path / "data"
    save_catalog(_events_catalog(), root)
    catalog = load_catalog(root, durable=True)
    try:
        for number in range(50):
            _commit(catalog, number)
        reloaded = load_catalog(root)
        assert _table_state(reloaded.get("events")) == _table_state(catalog.get("events"))
        assert reloaded.get("events").num_deleted == catalog.get("events").num_deleted
    finally:
        catalog.durability.reset_writer()


# --------------------------------------------------------------------------- #
# None in an object ndarray is a NULL
# --------------------------------------------------------------------------- #
def test_none_in_an_object_array_is_null():
    values = ["a", None, "b", None]
    from_array = Column("s", np.array(values, dtype=object))
    from_list = Column("s", values)
    _same_column(from_array, from_list)
    assert from_array.has_nulls() and from_array.values_list() == values
    assert Column("s", np.array(values, dtype=object), null_mask=[1, 0, 0, 0]).null_mask.tolist() == [
        True,
        True,
        False,
        True,
    ]
    ints = Column("i", np.array([1, None, 3], dtype=object), ctype=ColumnType.INT)
    assert ints.data.dtype == np.int64 and ints.values_list() == [1, None, 3]


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_object_array_nulls_answer_like_the_oracle(planner):
    strings = np.array(["a", None, "b", "a", None, "c"], dtype=object)
    catalog = Catalog([Table("t", [Column("i", np.arange(6)), Column("s", strings)])])
    sql = "SELECT t.i FROM t AS t WHERE t.s = 'a' OR t.s IS NULL"
    expected = sorted(evaluate_oracle(catalog, parse_query(sql)))
    assert expected == [(0,), (1,), (3,), (4,)]
    assert sorted(Session(catalog, stats_sample_size=6).execute(sql, planner).rows) == expected


def test_workload_generators_keep_their_nulls():
    catalogs = {
        "imdb": generate_imdb_catalog(scale=0.01, seed=3),
        "synthetic": generate_synthetic_catalog(),
        "random": generate_random_catalog(),
    }
    for kind, catalog in catalogs.items():
        for table in catalog:
            for column in table.columns():
                # The list form has always read None as NULL.
                rebuilt = Column(column.name, column.values_list(), ctype=column.ctype)
                assert column.has_nulls() == rebuilt.has_nulls(), (kind, column.name)
                if kind != "random":  # JOB and synthetic data plan two-valued
                    assert not column.has_nulls(), (kind, table.name, column.name)
