"""Crash-recovery matrix: kill real CLI runs at every fault point.

Each case copies a saved dataset, launches ``repro insert`` / ``repro delete``
/ ``repro compact`` in a subprocess with ``REPRO_FAULT_POINT`` set, asserts
the process died with :data:`~repro.testing.faults.CRASH_EXIT_CODE`, and then
reopens the crashed dataset.  Recovery must land exactly on the last committed
batch:

* a **pre** point (crash before the WAL commit marker was durable) recovers
  to the state before the command — byte-identical to the pristine copy;
* a **post** point (crash after the marker) recovers to the state after —
  byte-identical to an oracle that ran the same command without a fault.

Compaction points are compared logically instead of byte-wise: compaction
changes the physical layout on purpose, and a pre-swap crash legitimately
leaves (ignored, later garbage-collected) staging directories behind.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Catalog, Table
from repro.mutation.recovery import recover_saved_catalog
from repro.mutation.wal import wal_status
from repro.storage.disk import load_catalog, save_catalog
from repro.testing import faults

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: command name -> fault points exercised against it.  ``pre``/``post``
#: expectations come from :data:`repro.testing.faults.FAULT_POINTS`.
CRASH_MATRIX: dict[str, list[str]] = {
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
    "compact": [
        "compact.before_swap",
        "compact.before_wal_truncate",
        "manifest.before_rename",
    ],
}

COMMANDS: dict[str, list[str]] = {
    "insert": [
        "insert", "--table", "t",
        "--values", '[{"id": 100, "v": 1.0, "s": "x"}]',
    ],
    "delete": ["delete", "--table", "t", "--where", "t.id < 5"],
    "compact": ["compact"],
}


def test_matrix_covers_every_fault_point():
    """Adding a fault point without a matrix entry fails here."""
    exercised = {point for points in CRASH_MATRIX.values() for point in points}
    assert exercised == set(faults.FAULT_POINTS)


def _make_dataset(root: Path) -> None:
    catalog = Catalog(
        [
            Table.from_dict(
                "t",
                {
                    "id": list(range(30)),
                    "v": [float(i % 7) for i in range(30)],
                    "s": [f"n{i % 4}" for i in range(30)],
                },
            )
        ]
    )
    save_catalog(catalog, root)
    # Give the dataset WAL history so crashes land mid-stream, not on a
    # pristine first transaction, and give compaction something to fold.
    _run("insert", root)
    _run(
        "insert",
        root,
        argv=["insert", "--table", "t", "--values", '[{"id": 101, "v": 3.0, "s": "y"}]'],
    )
    _run("delete", root, argv=["delete", "--table", "t", "--where", "t.id > 27"])


def _run(command: str, root: Path, fault: str | None = None, argv=None) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop(faults.FAULT_ENV, None)
    if fault is not None:
        env[faults.FAULT_ENV] = fault
    argv = list(argv if argv is not None else COMMANDS[command])
    argv[1:1] = ["--data", str(root)]
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if fault is None:
        assert result.returncode == 0, result.stderr
    return result.returncode


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` as relative-path -> content bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _live_rows(root: Path):
    table = load_catalog(root).get("t")
    mask = table.delete_mask
    positions = np.arange(table.num_rows) if mask is None else np.flatnonzero(~mask)
    return sorted(tuple(sorted(row.items())) for row in table.rows(positions))


def _case_id(case):
    command, point = case
    return f"{command}-{point}"


CASES = [(command, point) for command, points in CRASH_MATRIX.items() for point in points]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_killed_command_recovers_to_last_committed_batch(case, tmp_path):
    command, point = case
    outcome = faults.FAULT_POINTS[point]

    crashed = tmp_path / "crashed"
    _make_dataset(crashed)
    pristine = tmp_path / "pristine"
    shutil.copytree(crashed, pristine)

    returncode = _run(command, crashed, fault=point)
    assert returncode == faults.CRASH_EXIT_CODE, f"{command} did not crash at {point}"

    # Reopen the crashed dataset: load_catalog recovers automatically; run
    # the explicit entry point too so its summary is part of the contract.
    summary = recover_saved_catalog(crashed)
    assert summary["wal"] is True
    status = wal_status(crashed)
    assert status["pending_txns"] == 0
    assert status["tail_bytes"] == 0

    if command == "compact":
        # Compaction never changes logical content; both pre and post points
        # must recover to exactly the pristine rows, and the dataset must
        # remain fully operational (a later compact succeeds).
        assert _live_rows(crashed) == _live_rows(pristine)
        assert _run("compact", crashed) == 0
        assert _live_rows(crashed) == _live_rows(pristine)
        return

    oracle = tmp_path / "oracle"
    shutil.copytree(pristine, oracle)
    _run(command, oracle)

    if outcome == "pre":
        # The batch never committed: recovery rolls the dataset back to the
        # pristine bytes (the torn WAL tail is truncated away).
        assert _tree(crashed) == _tree(pristine)
        assert _live_rows(crashed) == _live_rows(pristine)
    else:
        # The batch committed in the WAL: recovery replays it and the dataset
        # is byte-identical to the never-crashed oracle.
        assert _tree(crashed) == _tree(oracle)
        assert _live_rows(crashed) == _live_rows(oracle)

    # Either way the recovered dataset keeps working: one more insert lands.
    before = len(_live_rows(crashed))
    _run(
        "insert",
        crashed,
        argv=["insert", "--table", "t", "--values", '[{"id": 300, "v": 9.0, "s": "q"}]'],
    )
    assert len(_live_rows(crashed)) == before + 1


def test_compaction_after_a_pre_swap_crash_carries_fresh_sidecars(tmp_path):
    """The staging a killed compaction left behind never leaks into the next
    one: its carried index sidecars equal builds over the re-read rows."""
    from repro.access.indexes import build_index
    from repro.storage.disk import add_index_to_saved_catalog

    crashed = tmp_path / "crashed"
    _make_dataset(crashed)
    add_index_to_saved_catalog(crashed, "t", "s", kind="bitmap")
    add_index_to_saved_catalog(crashed, "t", "v", kind="sorted")
    assert _run("compact", crashed, fault="compact.before_swap") == faults.CRASH_EXIT_CODE
    assert _run("compact", crashed) == 0

    catalog = load_catalog(crashed)
    table = catalog.get("t")
    assert not table.has_deletes()
    for definition in catalog.access_manager.list_indexes():
        carried = catalog.access_manager.index_for("t", definition.column).to_arrays()
        fresh = build_index(
            Table.from_dict("t", {c.name: c.values_list() for c in table.columns()}).column(
                definition.column
            ),
            definition.kind,
        ).to_arrays()
        assert sorted(carried) == sorted(fresh)
        for name, array in fresh.items():
            assert carried[name].dtype == array.dtype and np.array_equal(carried[name], array)
    assert catalog.access_manager.stats.indexes_built == 0  # loaded, not rebuilt
