"""One dictionary per string column: extended on commit, shared with the index.

Covers ``DictionaryEncoding.extended`` against a fresh encode,
``carry_dictionaries`` across commits (the deterministic gate: zero full
encodes after warm-up), dictionary eligibility after an append, and that a
dropped catalog is freed by reference counting alone.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Catalog, QueryService, Session, Table
from repro.access.dictionary import (
    DICTIONARY_MAX_DISTINCT_FRACTION,
    NULL_CODE,
    DictionaryEncoding,
    table_dictionary,
)
from repro.access.manager import ensure_access_manager
from repro.mutation.compact import Compactor
from repro.storage.column import Column, ColumnType
from repro.storage.disk import load_catalog, save_catalog


# --------------------------------------------------------------------------- #
# (a) extended == fresh encode
# --------------------------------------------------------------------------- #
def _reference_encode(column: Column) -> tuple[np.ndarray, np.ndarray]:
    """The full-column ``np.unique`` formulation, transcribed independently."""
    excluded = column.null_mask.copy()
    if column.ctype is ColumnType.FLOAT:
        excluded |= np.isnan(column.data.astype(np.float64))
    codes = np.full(len(column), NULL_CODE, dtype=np.int32)
    values = np.empty(0, dtype=column.data.dtype)
    if (~excluded).any():
        values, inverse = np.unique(column.data[~excluded], return_inverse=True)
        codes[~excluded] = inverse
    return values, codes


_CELLS = {
    ColumnType.STRING: st.sampled_from(["", "a", "b", "ba", "m", "zz", "~"]),
    ColumnType.FLOAT: st.sampled_from([-1.5, 0.0, 2.0, 7.25, float("nan"), float("inf")]),
    ColumnType.INT: st.integers(-3, 3),
}


@st.composite
def _chunked_columns(draw):
    """``(ctype, chunks)``: up to four value lists appended one after another."""
    ctype = draw(st.sampled_from(list(_CELLS)))
    cell = st.one_of(st.none(), _CELLS[ctype])
    chunks = draw(st.lists(st.lists(cell, max_size=12), min_size=2, max_size=4))
    return ctype, chunks


@settings(max_examples=300, deadline=None)
@given(_chunked_columns())
@example((ColumnType.STRING, [[], ["b", None, "a"]]))  # empty old
@example((ColumnType.FLOAT, [[None, float("nan")], [2.0, None]]))  # all-NULL old
@example((ColumnType.STRING, [["m", "b"], []]))  # empty segment
@example((ColumnType.INT, [[1, 2, None], [2, 1, 1]]))  # no new values
@example((ColumnType.STRING, [["m", "p"], ["a", "n", "z", None]]))  # before/between/after
def test_extended_equals_fresh_encode(drawn):
    ctype, chunks = drawn
    values = list(chunks[0])
    encoding = DictionaryEncoding.encode(Column("c", values, ctype=ctype))
    for chunk in chunks[1:]:
        old_rows = len(values)
        values = values + chunk
        full = Column("c", values, ctype=ctype)
        previous_codes = encoding.codes.copy()
        extended = encoding.extended(full, old_rows)
        assert np.array_equal(encoding.codes, previous_codes)  # self not mutated
        encoding = extended
        expected_values, expected_codes = _reference_encode(full)
        assert encoding.values.dtype == expected_values.dtype
        assert np.array_equal(encoding.values, expected_values)
        assert encoding.codes.dtype == np.int32
        assert np.array_equal(encoding.codes, expected_codes)


# --------------------------------------------------------------------------- #
# (b) carried across commits, shared with the bitmap index
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


#: The four ``ingest_serve``-shaped reads (point, range, disjunctive, join).
READS = [
    "SELECT e.id FROM events AS e WHERE e.category = 'cat_03'",
    "SELECT e.id, e.value FROM events AS e WHERE e.ts BETWEEN 100 AND 140",
    "SELECT e.id FROM events AS e "
    "WHERE (e.category = 'cat_03' AND e.value < 0.5) OR e.ts < 20",
    "SELECT e.id, d.weight FROM events AS e JOIN dims AS d ON e.cat_id = d.did "
    "WHERE e.ts BETWEEN 100 AND 200 AND d.weight >= 0.0",
]


def _rows(start: int, count: int, category: int) -> list[dict]:
    return [
        {
            "id": start + i,
            "category": f"cat_{category:02d}",
            "cat_id": category,
            "ts": (start + 7 * i) % ROWS,
            "value": (i % 10) / 10.0,
        }
        for i in range(count)
    ]


def test_commits_carry_the_dictionary_instead_of_reencoding(monkeypatch):
    catalog = _events_catalog()
    service = QueryService(Session(catalog))
    reference = Session(catalog)
    for sql in READS:  # warm-up: plans, statistics, the dictionary itself
        service.execute(sql)

    encodes = []
    original = DictionaryEncoding.encode.__func__
    monkeypatch.setattr(
        DictionaryEncoding,
        "encode",
        classmethod(lambda cls, column: encodes.append(column.name) or original(cls, column)),
    )

    def stage(commit_number):
        batch = catalog.begin_mutation()
        start = ROWS + 10 * commit_number
        if commit_number == 2:  # delete-only
            batch.delete("events", positions=[3, 4, 5])
        elif commit_number == 3:  # introduces a value sorting before the others
            newcomer = dict(_rows(start + 10, 1, 8)[0], category="cat_")
            batch.insert("events", _rows(start, 10, 3) + [newcomer])
        else:
            batch.insert("events", _rows(start, 10, 3))
            if commit_number == 4:
                batch.delete("events", positions=[9])
        return batch

    manager = catalog.access_manager
    for commit_number in range(5):
        pinned = catalog.snapshot()
        old_table = catalog.get("events")
        old_encoding = table_dictionary(old_table, "category")
        stage(commit_number).commit()

        table = catalog.get("events")
        carried = table_dictionary(table, "category")
        if commit_number == 2:
            assert carried is old_encoding
        else:
            assert carried is not old_encoding
        # Pinned readers keep the old version's encoding, untouched.
        assert table_dictionary(pinned.get("events"), "category") is old_encoding
        assert old_encoding.num_rows == old_table.num_rows
        assert carried.num_rows == table.num_rows
        assert manager.index_for("events", "category").dictionary is carried

        for sql in READS:
            served = service.execute(sql)
            assert sorted(served.rows) == sorted(reference.execute(sql, planner="bdisj").rows)

        assert encodes == []
        fresh = original(DictionaryEncoding, table.column("category"))
        assert np.array_equal(carried.values, fresh.values)
        assert np.array_equal(carried.codes, fresh.codes)
    assert "cat_" in table_dictionary(catalog.get("events"), "category").values
    service.close()


# --------------------------------------------------------------------------- #
# (c) eligibility is decided exactly as a fresh table_dictionary would
# --------------------------------------------------------------------------- #
def _tags_catalog() -> Catalog:
    tags = [f"t{i % 10}" for i in range(100)]
    return Catalog(
        [
            Table(
                "t",
                [Column("id", np.arange(100), page_size=16), Column("tag", tags, page_size=16)],
            )
        ]
    )


def test_append_past_the_distinct_fraction_drops_the_dictionary():
    sql = "SELECT t.id FROM t AS t WHERE t.tag = 't3' OR t.tag LIKE 'u1%'"
    carried_catalog, lazy_catalog = _tags_catalog(), _tags_catalog()
    appends = [
        [{"id": 100 + i, "tag": f"t{i % 3}"} for i in range(20)],  # stays eligible
        [{"id": 120 + i, "tag": f"u{i}"} for i in range(120)],  # 130 of 240 distinct
    ]
    for catalog in (carried_catalog, lazy_catalog):
        assert table_dictionary(catalog.get("t"), "tag") is not None
    for rows, still_eligible in zip(appends, (True, False)):
        pages = []
        for catalog in (carried_catalog, lazy_catalog):
            catalog.begin_mutation().insert("t", rows).commit()
            table = catalog.get("t")
            if catalog is lazy_catalog:  # the parent's behaviour: decide on first use
                del table._dictionary_cache
            else:
                twin = Table("t", table.columns())  # same columns, same seeded statistics
                assert ("tag" in table._dictionary_cache) == still_eligible
                assert (table_dictionary(twin, "tag") is not None) == still_eligible
            result = Session(catalog).execute(sql)
            io = result.iostats
            pages.append((io.pages_read, io.values_read, sorted(result.rows)))
            assert (table_dictionary(table, "tag") is not None) == still_eligible
        assert pages[0] == pages[1]
    full = carried_catalog.get("t").column("tag")
    assert full.distinct_count() > int(len(full) * DICTIONARY_MAX_DISTINCT_FRACTION)


# --------------------------------------------------------------------------- #
# (d) a dropped catalog is freed without the cycle collector
# --------------------------------------------------------------------------- #
@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_dropped_catalog_is_freed_by_reference_counting(no_gc):
    catalog = _events_catalog()
    manager = catalog.access_manager
    session = Session(catalog)
    for sql in READS:
        session.execute(sql)
    assert table_dictionary(catalog.get("events"), "category") is not None
    assert manager.catalog is catalog
    dead = weakref.ref(catalog)
    table_dead = weakref.ref(catalog.get("events"))
    del catalog, manager, session
    assert dead() is None
    assert table_dead() is None


def test_compaction_leaves_no_table_to_the_cycle_collector(tmp_path, no_gc):
    save_catalog(_events_catalog(), tmp_path / "data")
    catalog = load_catalog(tmp_path / "data", durable=True)
    batch = catalog.begin_mutation()
    batch.insert("events", _rows(ROWS, 10, 3))
    batch.delete("events", positions=[1, 2])
    batch.commit()
    saved_flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        summary = Compactor(tmp_path / "data", catalog=catalog).run()
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage if isinstance(obj, (Table, Catalog))]
    finally:
        gc.set_debug(saved_flags)
        gc.garbage.clear()
        catalog.durability.reset_writer()
    assert summary["rows_reclaimed"] == 2
    assert leaked == []
