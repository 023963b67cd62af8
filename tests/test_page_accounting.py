"""Simulated-I/O accounting is pinned to literals, not to the code under test.

``EXPECTED`` and ``EXPECTED_SEQUENCE`` were recorded by running this file as a
script against commit d84c567, whose ``Column.read_at`` / ``account_read``
sorted every position array with ``np.unique`` (positions, then page ids)
before touching the counters.  The linear-time accounting that replaced it
must leave ``IOStats`` and the page cache exactly as that code did:

    PYTHONPATH=<checkout of d84c567>/src python tests/test_page_accounting.py

``EXPECTED_READ_PATH`` (contiguous runs, an ascending stride, a column with
NULLs) was recorded the same way against commit 58f054c, whose ``read_at``
built a table-length flag array for every read over the threshold and
gathered every read, before ascending reads skipped the flag array and
contiguous ones became views.
"""

import numpy as np
import pytest

from repro.storage.column import SEQUENTIAL_SCAN_THRESHOLD, Column
from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache

ROWS, PAGE_SIZE = 2000, 50  # 40 pages; more than 400 distinct rows = sequential
CACHE_CAPACITY = {"none": None, "large": 64, "small": 4}


def position_sets() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    shuffled = rng.permutation(ROWS)
    clustered = shuffled[shuffled < 600]
    return {
        "empty": np.empty(0, dtype=np.int64),
        "sorted_sparse": np.arange(0, ROWS, 137),
        "unsorted_clustered": clustered[:90],
        "one_page_repeated": np.array([1999, 1950, 1999, 1977]),
        "repeated_few_distinct": rng.integers(100, 160, size=1000),
        "at_threshold": shuffled[:400],
        "over_threshold": shuffled[:401],
        "repeats_at_threshold": np.concatenate([shuffled[:400], shuffled[:300]]),
        "repeats_over_threshold": np.concatenate([shuffled[:401], shuffled[:300]]),
    }


def read_path_sets() -> dict[str, np.ndarray]:
    """Sets whose shape the read path looks at (kept out of the sequence above)."""
    return {
        "contiguous_over_threshold": np.arange(700, 1101),
        "contiguous_at_threshold": np.arange(700, 1100),
        "every_other_row": np.arange(0, ROWS, 2),
    }


def make_column(nulls: bool = False) -> Column:
    null_mask = np.arange(ROWS) % 7 == 3 if nulls else None
    return Column("c", np.arange(ROWS) * 3, null_mask=null_mask, page_size=PAGE_SIZE)


def make_cache(mode: str) -> LFUPageCache | None:
    capacity = CACHE_CAPACITY[mode]
    return None if capacity is None else LFUPageCache(capacity)


def observed(stats: IOStats, cache: LFUPageCache | None) -> tuple:
    resident = [] if cache is None else sorted(page for _name, page in cache._frequencies)
    return (
        (stats.pages_read, stats.pages_hit, stats.sequential_scans,
         stats.selective_reads, stats.values_read),
        resident,
    )


def run_one(method: str, positions: np.ndarray, mode: str, nulls: bool = False) -> tuple:
    column, stats, cache = make_column(nulls), IOStats(), make_cache(mode)
    getattr(column, method)(positions, cache=cache, iostats=stats)
    return observed(stats, cache)


def run_sequence(mode: str) -> list[tuple]:
    """Every set in turn on one cache: hits and evictions depend on history."""
    column, stats, cache = make_column(), IOStats(), make_cache(mode)
    steps = []
    for index, positions in enumerate(position_sets().values()):
        if index % 3 == 2:
            # A read of the distinct positions in ascending order.
            mask = np.zeros(ROWS, dtype=np.bool_)
            mask[positions] = True
            column.read_at(np.flatnonzero(mask), cache=cache, iostats=stats)
        elif index % 3 == 1:
            column.account_read(positions, cache=cache, iostats=stats)
        else:
            column.read_at(positions, cache=cache, iostats=stats)
        steps.append(observed(stats, cache))
    return steps


ALL_PAGES = list(range(ROWS // PAGE_SIZE))
# (set, cache) -> ((pages_read, pages_hit, sequential, selective, values), resident pages)
EXPECTED = {
    ('empty', 'none'): ((0, 0, 0, 0, 0), []),
    ('empty', 'large'): ((0, 0, 0, 0, 0), []),
    ('empty', 'small'): ((0, 0, 0, 0, 0), []),
    ('sorted_sparse', 'none'): ((15, 0, 0, 1, 15), []),
    ('sorted_sparse', 'large'): ((15, 0, 0, 1, 15), [0, 2, 5, 8, 10, 13, 16, 19, 21, 24, 27, 30, 32, 35, 38]),
    ('sorted_sparse', 'small'): ((15, 0, 0, 1, 15), [30, 32, 35, 38]),
    ('unsorted_clustered', 'none'): ((12, 0, 0, 1, 90), []),
    ('unsorted_clustered', 'large'): ((12, 0, 0, 1, 90), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]),
    ('unsorted_clustered', 'small'): ((12, 0, 0, 1, 90), [8, 9, 10, 11]),
    ('one_page_repeated', 'none'): ((1, 0, 0, 1, 4), []),
    ('one_page_repeated', 'large'): ((1, 0, 0, 1, 4), [39]),
    ('one_page_repeated', 'small'): ((1, 0, 0, 1, 4), [39]),
    ('repeated_few_distinct', 'none'): ((2, 0, 0, 1, 1000), []),
    ('repeated_few_distinct', 'large'): ((2, 0, 0, 1, 1000), [2, 3]),
    ('repeated_few_distinct', 'small'): ((2, 0, 0, 1, 1000), [2, 3]),
    ('at_threshold', 'none'): ((40, 0, 0, 1, 400), []),
    ('at_threshold', 'large'): ((40, 0, 0, 1, 400), ALL_PAGES),
    ('at_threshold', 'small'): ((40, 0, 0, 1, 400), [36, 37, 38, 39]),
    ('over_threshold', 'none'): ((40, 0, 1, 0, 401), []),
    ('over_threshold', 'large'): ((40, 0, 1, 0, 401), []),
    ('over_threshold', 'small'): ((40, 0, 1, 0, 401), []),
    ('repeats_at_threshold', 'none'): ((40, 0, 0, 1, 700), []),
    ('repeats_at_threshold', 'large'): ((40, 0, 0, 1, 700), ALL_PAGES),
    ('repeats_at_threshold', 'small'): ((40, 0, 0, 1, 700), [36, 37, 38, 39]),
    ('repeats_over_threshold', 'none'): ((40, 0, 1, 0, 701), []),
    ('repeats_over_threshold', 'large'): ((40, 0, 1, 0, 701), []),
    ('repeats_over_threshold', 'small'): ((40, 0, 1, 0, 701), []),
}
EXPECTED_SEQUENCE = {
    'none': [
        ((0, 0, 0, 0, 0), []),
        ((15, 0, 0, 1, 15), []),
        ((27, 0, 0, 2, 105), []),
        ((28, 0, 0, 3, 109), []),
        ((30, 0, 0, 4, 1109), []),
        ((70, 0, 0, 5, 1509), []),
        ((110, 0, 1, 5, 1910), []),
        ((150, 0, 1, 6, 2610), []),
        ((190, 0, 2, 6, 3011), []),
    ],
    'large': [
        ((0, 0, 0, 0, 0), []),
        ((15, 0, 0, 1, 15), [0, 2, 5, 8, 10, 13, 16, 19, 21, 24, 27, 30, 32, 35, 38]),
        ((22, 5, 0, 2, 105), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 19, 21, 24, 27, 30, 32, 35, 38]),
        ((23, 5, 0, 3, 109), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 19, 21, 24, 27, 30, 32, 35, 38, 39]),
        ((23, 7, 0, 4, 1109), [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 19, 21, 24, 27, 30, 32, 35, 38, 39]),
        ((40, 30, 0, 5, 1509), ALL_PAGES),
        ((80, 30, 1, 5, 1910), ALL_PAGES),
        ((80, 70, 1, 6, 2610), ALL_PAGES),
        ((120, 70, 2, 6, 3011), ALL_PAGES),
    ],
    'small': [
        ((0, 0, 0, 0, 0), []),
        ((15, 0, 0, 1, 15), [30, 32, 35, 38]),
        ((27, 0, 0, 2, 105), [8, 9, 10, 11]),
        ((28, 0, 0, 3, 109), [9, 10, 11, 39]),
        ((30, 0, 0, 4, 1109), [2, 3, 11, 39]),
        ((68, 2, 0, 5, 1509), [2, 3, 38, 39]),
        ((108, 2, 1, 5, 1910), [2, 3, 38, 39]),
        ((146, 4, 1, 6, 2610), [2, 3, 38, 39]),
        ((186, 4, 2, 6, 3011), [2, 3, 38, 39]),
    ],
}


# (set, column, cache) -> as EXPECTED.
EXPECTED_READ_PATH = {
    ('contiguous_over_threshold', 'plain', 'none'): ((40, 0, 1, 0, 401), []),
    ('contiguous_over_threshold', 'plain', 'large'): ((40, 0, 1, 0, 401), []),
    ('contiguous_over_threshold', 'plain', 'small'): ((40, 0, 1, 0, 401), []),
    ('contiguous_over_threshold', 'nulls', 'none'): ((40, 0, 1, 0, 401), []),
    ('contiguous_over_threshold', 'nulls', 'large'): ((40, 0, 1, 0, 401), []),
    ('contiguous_over_threshold', 'nulls', 'small'): ((40, 0, 1, 0, 401), []),
    ('contiguous_at_threshold', 'plain', 'none'): ((8, 0, 0, 1, 400), []),
    ('contiguous_at_threshold', 'plain', 'large'): ((8, 0, 0, 1, 400), [14, 15, 16, 17, 18, 19, 20, 21]),
    ('contiguous_at_threshold', 'plain', 'small'): ((8, 0, 0, 1, 400), [18, 19, 20, 21]),
    ('contiguous_at_threshold', 'nulls', 'none'): ((8, 0, 0, 1, 400), []),
    ('contiguous_at_threshold', 'nulls', 'large'): ((8, 0, 0, 1, 400), [14, 15, 16, 17, 18, 19, 20, 21]),
    ('contiguous_at_threshold', 'nulls', 'small'): ((8, 0, 0, 1, 400), [18, 19, 20, 21]),
    ('every_other_row', 'plain', 'none'): ((40, 0, 1, 0, 1000), []),
    ('every_other_row', 'plain', 'large'): ((40, 0, 1, 0, 1000), []),
    ('every_other_row', 'plain', 'small'): ((40, 0, 1, 0, 1000), []),
    ('every_other_row', 'nulls', 'none'): ((40, 0, 1, 0, 1000), []),
    ('every_other_row', 'nulls', 'large'): ((40, 0, 1, 0, 1000), []),
    ('every_other_row', 'nulls', 'small'): ((40, 0, 1, 0, 1000), []),
}


def test_the_sets_straddle_the_threshold():
    sets = position_sets()
    limit = SEQUENTIAL_SCAN_THRESHOLD * ROWS
    assert np.unique(sets["at_threshold"]).size == limit
    assert np.unique(sets["repeats_at_threshold"]).size == limit < sets["repeats_at_threshold"].size
    assert np.unique(sets["repeated_few_distinct"]).size < limit < sets["repeated_few_distinct"].size
    assert np.unique(sets["over_threshold"]).size == limit + 1
    assert np.any(np.diff(sets["unsorted_clustered"]) < 0)
    assert np.unique(sets["unsorted_clustered"] // PAGE_SIZE).size > CACHE_CAPACITY["small"]


@pytest.mark.parametrize("mode", list(CACHE_CAPACITY))
@pytest.mark.parametrize("name", list(position_sets()))
def test_single_read_matches_recorded_accounting(name, mode):
    positions = position_sets()[name]
    assert run_one("read_at", positions, mode) == EXPECTED[name, mode]
    assert run_one("account_read", positions, mode) == EXPECTED[name, mode]


@pytest.mark.parametrize("mode", list(CACHE_CAPACITY))
@pytest.mark.parametrize("column", ["plain", "nulls"])
@pytest.mark.parametrize("name", list(read_path_sets()))
def test_read_path_sets_match_recorded_accounting(name, column, mode):
    positions = read_path_sets()[name]
    expected = EXPECTED_READ_PATH[name, column, mode]
    assert run_one("read_at", positions, mode, column == "nulls") == expected
    assert run_one("account_read", positions, mode, column == "nulls") == expected


def test_the_read_path_sets_have_their_shapes():
    sets = read_path_sets()
    limit = SEQUENTIAL_SCAN_THRESHOLD * ROWS
    assert sets["contiguous_over_threshold"].size == limit + 1
    assert sets["contiguous_at_threshold"].size == limit
    assert np.all(np.diff(sets["contiguous_over_threshold"]) == 1)
    assert np.all(np.diff(sets["every_other_row"]) == 2)
    assert sets["every_other_row"].size > limit


@pytest.mark.parametrize("mode", list(CACHE_CAPACITY))
def test_read_sequence_matches_recorded_accounting(mode):
    assert run_sequence(mode) == EXPECTED_SEQUENCE[mode]


def test_read_at_returns_the_cells_in_request_order():
    column = make_column()
    for positions in position_sets().values():
        values, nulls = column.read_at(positions, iostats=IOStats())
        assert np.array_equal(values, positions * 3)
        assert not nulls.any()


def test_read_at_of_a_column_with_nulls_returns_its_cells():
    column = make_column(nulls=True)
    for positions in [*position_sets().values(), *read_path_sets().values()]:
        values, nulls = column.read_at(positions, iostats=IOStats())
        assert np.array_equal(values, positions * 3)
        assert np.array_equal(nulls, positions % 7 == 3)


if __name__ == "__main__":  # record the literals (run against the parent commit)
    print("EXPECTED = {")
    for set_name, set_positions in position_sets().items():
        for cache_mode in CACHE_CAPACITY:
            print(f"    ({set_name!r}, {cache_mode!r}): {run_one('read_at', set_positions, cache_mode)},")
    print("}")
    print("EXPECTED_READ_PATH = {")
    for set_name, set_positions in read_path_sets().items():
        for column_kind in ("plain", "nulls"):
            for cache_mode in CACHE_CAPACITY:
                step = run_one("read_at", set_positions, cache_mode, column_kind == "nulls")
                print(f"    ({set_name!r}, {column_kind!r}, {cache_mode!r}): {step},")
    print("}")
    print("EXPECTED_SEQUENCE = {")
    for cache_mode in CACHE_CAPACITY:
        print(f"    {cache_mode!r}: [")
        for step in run_sequence(cache_mode):
            print(f"        {step},")
        print("    ],")
    print("}")
