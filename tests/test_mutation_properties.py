"""Property-based randomized DML: random plans vs an in-memory oracle.

Each test seed generates a concrete **plan** — a list of inserts, predicate
deletes, compactions, injected crashes and deliberate commit conflicts — and
replays it against a saved dataset, mirroring every step in a plain
dict-of-rows oracle.  After every step the dataset's live rows must equal the
oracle exactly; at the end, query results are verified against the oracle
across parallelism {1, 4} and with secondary indexes off and on.

The suite is seeded (failures name the seed) and shrinkable: a failing plan
is greedily delta-debugged down to a minimal failing subsequence before the
assertion is re-raised, so the failure output shows the smallest reproducer
rather than the full random plan.  (The standard library only — ``hypothesis``
is deliberately not a dependency.)
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import Catalog, Session, Table
from repro.mutation import ConflictError, retry_on_conflict
from repro.mutation.diskops import (
    append_rows_to_saved_catalog,
    compact_saved_catalog,
    delete_rows_from_saved_catalog,
)
from repro.mutation.recovery import recover_saved_catalog
from repro.storage.disk import add_index_to_saved_catalog, load_catalog, save_catalog
from repro.testing import faults

BUCKETS = 7  # distinct ``v`` values; deletes target one bucket at a time

#: fault points a randomized crash step may arm, per DML kind (delete never
#: writes segment directories, so ``segment.partial_write`` cannot fire there).
CRASH_POINTS = {
    "insert": [
        "wal.partial_record",
        "wal.after_record",
        "wal.before_fsync",
        "segment.partial_write",
        "manifest.before_rename",
    ],
    "delete": [
        "wal.partial_record",
        "wal.after_record",
        "wal.before_fsync",
        "manifest.before_rename",
    ],
}


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.disarm()


# --------------------------------------------------------------------------- #
# Plan generation (fully concrete: execution has no randomness of its own)
# --------------------------------------------------------------------------- #
def _make_rows(rng: random.Random, next_id: int, count: int) -> list[dict]:
    return [
        {
            "id": next_id + i,
            "v": float(rng.randrange(BUCKETS)),
            "s": f"n{(next_id + i) % 4}",
        }
        for i in range(count)
    ]


def generate_plan(seed: int, length: int = 12) -> list[tuple]:
    rng = random.Random(seed)
    next_id = 1000
    plan: list[tuple] = []
    for _ in range(length):
        kind = rng.choices(
            ["insert", "delete", "compact", "crash", "conflict"],
            weights=[35, 25, 10, 20, 10],
        )[0]
        if kind == "insert":
            rows = _make_rows(rng, next_id, rng.randint(1, 5))
            next_id += len(rows)
            plan.append(("insert", rows))
        elif kind == "delete":
            plan.append(("delete", float(rng.randrange(BUCKETS))))
        elif kind == "compact":
            plan.append(("compact",))
        elif kind == "crash":
            dml = rng.choice(["insert", "delete"])
            point = rng.choice(CRASH_POINTS[dml])
            if dml == "insert":
                rows = _make_rows(rng, next_id, rng.randint(1, 3))
                next_id += len(rows)
                plan.append(("crash", "insert", rows, point))
            else:
                plan.append(("crash", "delete", float(rng.randrange(BUCKETS)), point))
        else:
            rows_a = _make_rows(rng, next_id, rng.randint(1, 3))
            next_id += len(rows_a)
            rows_b = _make_rows(rng, next_id, rng.randint(1, 3))
            next_id += len(rows_b)
            plan.append(("conflict", rows_a, rows_b))
    return plan


# --------------------------------------------------------------------------- #
# Execution against dataset + oracle
# --------------------------------------------------------------------------- #
def _initial_rows() -> list[dict]:
    return [
        {"id": i, "v": float(i % BUCKETS), "s": f"n{i % 4}"} for i in range(20)
    ]


def _live_rows(root):
    table = load_catalog(root).get("t")
    mask = table.delete_mask
    positions = np.arange(table.num_rows) if mask is None else np.flatnonzero(~mask)
    return sorted(tuple(sorted(row.items())) for row in table.rows(positions))


def _oracle_rows(oracle: dict) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in oracle.values())


def _execute_plan(plan: list[tuple], root) -> dict:
    """Replay ``plan``; raises AssertionError at the first divergence."""
    save_catalog(Catalog([Table.from_dict("t", _rows_as_columns(_initial_rows()))]), root)
    oracle = {row["id"]: row for row in _initial_rows()}

    for step, op in enumerate(plan):
        if op[0] == "insert":
            append_rows_to_saved_catalog(root, "t", op[1])
            oracle.update({row["id"]: row for row in op[1]})
        elif op[0] == "delete":
            delete_rows_from_saved_catalog(root, "t", f"t.v = {op[1]}")
            oracle = {i: row for i, row in oracle.items() if row["v"] != op[1]}
        elif op[0] == "compact":
            compact_saved_catalog(root)
        elif op[0] == "crash":
            _, dml, arg, point = op
            with faults.armed(point):
                try:
                    if dml == "insert":
                        append_rows_to_saved_catalog(root, "t", arg)
                    else:
                        delete_rows_from_saved_catalog(root, "t", f"t.v = {arg}")
                    raise AssertionError(f"step {step}: fault {point} never fired")
                except faults.InjectedCrash:
                    pass
            recover_saved_catalog(root)
            if faults.FAULT_POINTS[point] == "post":  # the batch survived
                if dml == "insert":
                    oracle.update({row["id"]: row for row in arg})
                else:
                    oracle = {i: row for i, row in oracle.items() if row["v"] != arg}
        elif op[0] == "conflict":
            _, rows_a, rows_b = op
            catalog = load_catalog(root, durable=True)
            winner = catalog.begin_mutation().insert("t", rows_a)
            loser = catalog.begin_mutation().insert("t", rows_b)
            winner.commit()
            with pytest.raises(ConflictError):
                loser.commit()
            retry_on_conflict(catalog, lambda batch: batch.insert("t", rows_b))
            oracle.update({row["id"]: row for row in rows_a + rows_b})
        else:  # pragma: no cover - plan generator bug
            raise AssertionError(f"unknown op {op!r}")

        actual, expected = _live_rows(root), _oracle_rows(oracle)
        assert actual == expected, (
            f"step {step} ({op[0]}): dataset diverged from oracle "
            f"({len(actual)} vs {len(expected)} rows)"
        )
    return oracle


def _rows_as_columns(rows: list[dict]) -> dict:
    return {name: [row[name] for row in rows] for name in ("id", "v", "s")}


# --------------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------------- #
def shrink_plan(plan: list[tuple], fails) -> list[tuple]:
    """Greedy delta debugging: drop ever-smaller chunks while still failing.

    ``fails(candidate)`` re-runs the candidate plan from scratch and reports
    whether it still reproduces the failure.
    """
    chunk = max(1, len(plan) // 2)
    while chunk >= 1:
        index = 0
        while index < len(plan):
            candidate = plan[:index] + plan[index + chunk:]
            if candidate and fails(candidate):
                plan = candidate
            else:
                index += chunk
        chunk //= 2
    return plan


def _replay_fails(scratch):
    """A ``fails`` predicate executing candidate plans in fresh directories."""
    counter = iter(range(10_000))

    def fails(candidate: list[tuple]) -> bool:
        root = scratch / f"shrink-{next(counter)}"
        try:
            _execute_plan(candidate, root)
        except AssertionError:
            return True
        return False

    return fails


# --------------------------------------------------------------------------- #
# The property tests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
def test_random_plan_matches_oracle(seed, tmp_path):
    plan = generate_plan(seed)
    try:
        oracle = _execute_plan(plan, tmp_path / "data")
    except AssertionError as error:
        minimal = shrink_plan(plan, _replay_fails(tmp_path))
        raise AssertionError(
            f"seed {seed} failed: {error}\nminimal failing plan "
            f"({len(minimal)} of {len(plan)} steps):\n"
            + "\n".join(f"  {op!r}" for op in minimal)
        ) from error

    # Query-level verification: parallelism {1, 4} x indexes off/on must all
    # agree with the oracle.
    root = tmp_path / "data"
    expected_by_bucket = {
        bucket: sorted(
            (row["id"],) for row in oracle.values() if row["v"] == float(bucket)
        )
        for bucket in range(BUCKETS)
    }
    for indexed in (False, True):
        if indexed:
            add_index_to_saved_catalog(root, "t", "v")
            add_index_to_saved_catalog(root, "t", "id")
        catalog = load_catalog(root)
        for parallelism in (1, 4):
            session = Session(catalog, parallelism=parallelism, access_paths=indexed)
            for bucket in range(BUCKETS):
                result = session.execute(
                    f"SELECT t.id FROM t AS t WHERE t.v = {float(bucket)}"
                )
                assert sorted(result.rows) == expected_by_bucket[bucket], (
                    f"seed {seed}: bucket {bucket} diverged "
                    f"(parallelism={parallelism}, indexed={indexed})"
                )
            total = session.execute("SELECT t.id FROM t AS t WHERE t.id >= 0")
            assert total.row_count == len(oracle)


def test_shrinker_minimizes_a_synthetic_failure():
    """The shrinker reduces a long plan to just the op that triggers failure."""
    plan = generate_plan(3, length=10)
    poison = ("crash", "insert", [{"id": 9999, "v": 0.0, "s": "n0"}], "wal.after_record")
    full = plan[:4] + [poison] + plan[4:]
    minimal = shrink_plan(full, lambda candidate: poison in candidate)
    assert minimal == [poison]


def test_shrinker_finds_a_real_divergence(tmp_path):
    """End to end: a plan made to diverge shrinks to a tiny reproducer.

    The divergence is injected by a bogus op the executor rejects — the
    shrinker must isolate it from the healthy surrounding steps by actually
    replaying candidate plans against fresh datasets.
    """
    plan = generate_plan(5, length=6)
    bogus = ("bogus-op",)
    full = plan[:3] + [bogus] + plan[3:]
    fails = _replay_fails(tmp_path)
    assert fails(full)
    minimal = shrink_plan(full, fails)
    assert minimal == [bogus]
