"""WAL unit tests: record format, torn tails, recovery, compaction faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Table
from repro.mutation.diskops import (
    append_rows_to_saved_catalog,
    apply_ops_to_saved_catalog,
    compact_saved_catalog,
    delete_rows_from_saved_catalog,
)
from repro.mutation.recovery import recover_saved_catalog
from repro.mutation.wal import (
    WAL_NAME,
    DurabilityController,
    WalError,
    WalTransaction,
    WalWriter,
    applied_txn,
    encode_record,
    json_safe,
    read_wal,
    rewrite_wal,
    wal_status,
)
from repro.storage.disk import _read_manifest, load_catalog, save_catalog
from repro.testing import faults


def _saved_dataset(tmp_path):
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
    root = tmp_path / "data"
    save_catalog(catalog, root)
    return root


def _live_rows(root, table="t"):
    """The logical (live) rows of a saved table, order-independent."""
    catalog = load_catalog(root)
    tbl = catalog.get(table)
    mask = tbl.delete_mask
    positions = np.arange(tbl.num_rows) if mask is None else np.flatnonzero(~mask)
    return sorted(tuple(sorted(row.items())) for row in tbl.rows(positions))


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.disarm()


class TestRecordFormat:
    def test_transaction_round_trip(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            txn = writer.append_transaction(
                [{"table": "t", "op": "append", "rows": [{"id": 1, "v": 2.5}]}]
            )
        assert txn == 1
        state = read_wal(tmp_path)
        assert state.base_txn == 0
        assert [t.txn for t in state.committed] == [1]
        assert state.committed[0].ops == [
            {"table": "t", "op": "append", "rows": [{"id": 1, "v": 2.5}]}
        ]
        assert state.tail_bytes == 0

    def test_txn_numbers_are_monotone(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            assert writer.append_transaction([{"table": "t", "op": "append", "rows": []}]) == 1
            assert writer.append_transaction([{"table": "t", "op": "append", "rows": []}]) == 2
        # A fresh writer continues where the last committed transaction ended.
        with WalWriter(tmp_path) as writer:
            assert writer.append_transaction([{"table": "t", "op": "append", "rows": []}]) == 3
        assert read_wal(tmp_path).last_txn == 3

    def test_torn_record_is_tail_not_error(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            writer.append_transaction([{"table": "t", "op": "append", "rows": [{"id": 1}]}])
        path = tmp_path / WAL_NAME
        intact = path.read_bytes()
        # Half a record appended after the commit marker: a torn tail.
        path.write_bytes(intact + encode_record({"kind": "op", "txn": 2, "x": 1})[:9])
        state = read_wal(tmp_path)
        assert [t.txn for t in state.committed] == [1]
        assert state.tail_bytes == 9
        assert state.valid_length == len(intact)

    def test_corrupt_checksum_stops_the_scan(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            writer.append_transaction([{"table": "t", "op": "append", "rows": [{"id": 1}]}])
            end_of_first = (tmp_path / WAL_NAME).stat().st_size
            writer.append_transaction([{"table": "t", "op": "append", "rows": [{"id": 2}]}])
        path = tmp_path / WAL_NAME
        data = bytearray(path.read_bytes())
        data[end_of_first + 20] ^= 0xFF  # flip a payload byte of txn 2
        path.write_bytes(bytes(data))
        state = read_wal(tmp_path)
        assert [t.txn for t in state.committed] == [1]
        assert state.tail_bytes == len(data) - state.valid_length > 0

    def test_uncommitted_transaction_is_tail(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            writer.append_transaction([{"table": "t", "op": "append", "rows": [{"id": 1}]}])
        path = tmp_path / WAL_NAME
        # Op records without a commit marker: the transaction never committed.
        orphan = encode_record({"kind": "op", "txn": 2, "table": "t", "op": "append", "rows": []})
        path.write_bytes(path.read_bytes() + orphan)
        state = read_wal(tmp_path)
        assert [t.txn for t in state.committed] == [1]
        assert state.tail_bytes == len(orphan)

    def test_unreadable_header_means_whole_file_is_tail(self, tmp_path):
        (tmp_path / WAL_NAME).write_bytes(b"not a wal file at all")
        state = read_wal(tmp_path)
        assert state.committed == []
        assert state.valid_length == 0
        assert state.tail_bytes == len(b"not a wal file at all")

    def test_no_wal_file_reads_as_none(self, tmp_path):
        assert read_wal(tmp_path) is None

    def test_json_safe_unwraps_numpy_scalars(self):
        safe = json_safe({"a": np.int64(3), "b": [np.float64(1.5)], "c": "s"})
        assert safe == {"a": 3, "b": [1.5], "c": "s"}
        assert type(safe["a"]) is int and type(safe["b"][0]) is float


class TestWriterTruncation:
    def test_open_truncates_torn_tail(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            writer.append_transaction([{"table": "t", "op": "append", "rows": [{"id": 1}]}])
        path = tmp_path / WAL_NAME
        clean_size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00garbage")
        with WalWriter(tmp_path) as writer:
            assert path.stat().st_size == clean_size
            assert writer.append_transaction([{"table": "t", "op": "append", "rows": []}]) == 2


class TestHeaderlessWal:
    """A wal.log with no readable header must be rewritten, not appended to."""

    def test_empty_wal_file_is_rewritten_with_a_header(self, tmp_path):
        root = _saved_dataset(tmp_path)
        (root / WAL_NAME).write_bytes(b"")
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        state = read_wal(root)
        assert state.base_txn == 0
        assert [t.txn for t in state.committed] == [1]
        assert len(_live_rows(root)) == 31  # the dataset still loads

    def test_torn_header_resumes_from_the_applied_watermark(self, tmp_path):
        # The review scenario: a crash during WAL creation leaves a partial
        # header; the next write must not extend the headerless file (that
        # made every later load_catalog raise WalError).
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        path = root / WAL_NAME
        path.write_bytes(path.read_bytes()[:7])  # no intact record at all
        append_rows_to_saved_catalog(root, "t", [{"id": 101, "v": 2.0, "s": "y"}])
        state = read_wal(root)
        assert state.base_txn == 1  # numbering stayed absolute and monotone
        assert [t.txn for t in state.committed] == [2]
        assert len(_live_rows(root)) == 32
        status = wal_status(root)
        assert status["pending_txns"] == 0
        assert status["tail_bytes"] == 0


class TestRewrite:
    def test_rewrite_advances_base_and_keeps_survivors(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            for i in range(4):
                writer.append_transaction(
                    [{"table": "t", "op": "append", "rows": [{"id": i}]}]
                )
        state = read_wal(tmp_path)
        survivors = [t for t in state.committed if t.txn > 3]
        rewrite_wal(tmp_path, 3, survivors)
        state = read_wal(tmp_path)
        assert state.base_txn == 3
        assert [t.txn for t in state.committed] == [4]
        assert state.last_txn == 4
        # Absolute numbering continues past the rewrite.
        with WalWriter(tmp_path) as writer:
            assert writer.append_transaction([{"table": "t", "op": "append", "rows": []}]) == 5

    def test_rewrite_to_empty_keeps_the_watermark(self, tmp_path):
        rewrite_wal(tmp_path, 7, [])
        state = read_wal(tmp_path)
        assert state.base_txn == 7
        assert state.committed == []
        assert state.last_txn == 7

    def test_wal_transaction_survives_rewrite_round_trip(self, tmp_path):
        ops = [{"table": "t", "op": "delete", "positions": [1, 2]}]
        rewrite_wal(tmp_path, 0, [WalTransaction(txn=1, ops=ops)])
        assert read_wal(tmp_path).committed[0].ops == ops


class TestWalStatus:
    def test_fresh_dataset_has_no_wal(self, tmp_path):
        root = _saved_dataset(tmp_path)
        status = wal_status(root)
        assert status["exists"] is False
        assert status["pending_txns"] == 0

    def test_applied_tracks_committed_after_dml(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        delete_rows_from_saved_catalog(root, "t", "t.id = 0")
        status = wal_status(root)
        assert status["exists"] is True
        assert status["committed_txns"] == 2
        assert status["applied_txns"] == 2
        assert status["pending_txns"] == 0
        assert status["tail_bytes"] == 0
        assert applied_txn(_read_manifest(root)) == 2

    def test_committed_but_unapplied_txn_is_pending(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        # Hand-log a second transaction without applying it.
        with WalWriter(root) as writer:
            writer.append_transaction(
                [{"table": "t", "op": "append", "rows": [{"id": 101, "v": 2.0, "s": "y"}]}]
            )
        status = wal_status(root)
        assert status["committed_txns"] == 2
        assert status["applied_txns"] == 1
        assert status["pending_txns"] == 1


class TestRecovery:
    def test_no_wal_is_a_no_op(self, tmp_path):
        root = _saved_dataset(tmp_path)
        summary = recover_saved_catalog(root)
        assert summary == {
            "wal": False,
            "truncated_bytes": 0,
            "replayed_txns": 0,
            "last_txn": 0,
            "applied_txns": 0,
        }

    def test_torn_tail_is_truncated_and_batch_rolled_back(self, tmp_path):
        root = _saved_dataset(tmp_path)
        before = _live_rows(root)
        with faults.armed("wal.partial_record"):
            with pytest.raises(faults.InjectedCrash):
                append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        summary = recover_saved_catalog(root)
        assert summary["truncated_bytes"] > 0
        assert summary["replayed_txns"] == 0
        assert _live_rows(root) == before
        assert wal_status(root)["tail_bytes"] == 0

    def test_committed_unapplied_txn_is_replayed(self, tmp_path):
        root = _saved_dataset(tmp_path)
        with faults.armed("segment.partial_write"):
            with pytest.raises(faults.InjectedCrash):
                append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        assert wal_status(root)["pending_txns"] == 1
        summary = recover_saved_catalog(root)
        assert summary["replayed_txns"] == 1
        assert summary["truncated_bytes"] == 0
        rows = _live_rows(root)
        assert (("id", 100), ("s", "x"), ("v", 1.0)) in rows
        assert len(rows) == 31

    def test_load_catalog_recovers_automatically(self, tmp_path):
        root = _saved_dataset(tmp_path)
        with faults.armed("manifest.before_rename"):
            with pytest.raises(faults.InjectedCrash):
                delete_rows_from_saved_catalog(root, "t", "t.id < 5")
        assert wal_status(root)["pending_txns"] == 1
        catalog = load_catalog(root)  # recover=True is the default
        assert catalog.get("t").num_live == 25
        assert wal_status(root)["pending_txns"] == 0

    def test_recovery_is_idempotent(self, tmp_path):
        root = _saved_dataset(tmp_path)
        with faults.armed("segment.partial_write"):
            with pytest.raises(faults.InjectedCrash):
                append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        recover_saved_catalog(root)
        after_first = _live_rows(root)
        summary = recover_saved_catalog(root)
        assert summary["replayed_txns"] == 0
        assert _live_rows(root) == after_first

    def test_apply_ops_skips_already_applied_txns(self, tmp_path):
        root = _saved_dataset(tmp_path)
        ops = [{"table": "t", "op": "append", "rows": [{"id": 100, "v": 1.0, "s": "x"}]}]
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        # Re-applying transaction 1 must be a no-op: the manifest watermark
        # already covers it.
        apply_ops_to_saved_catalog(root, ops, wal_txn=1)
        assert len(_live_rows(root)) == 31


class TestCompactionFaults:
    """In-process regression tests for crashes inside the compaction swap."""

    def _dataset_with_history(self, tmp_path):
        root = _saved_dataset(tmp_path)
        append_rows_to_saved_catalog(root, "t", [{"id": 100, "v": 1.0, "s": "x"}])
        delete_rows_from_saved_catalog(root, "t", "t.id < 3")
        return root

    def test_crash_before_swap_preserves_old_state(self, tmp_path):
        root = self._dataset_with_history(tmp_path)
        before = _live_rows(root)
        generation = int(_read_manifest(root).get("generation", 0))
        with faults.armed("compact.before_swap"):
            with pytest.raises(faults.InjectedCrash):
                compact_saved_catalog(root)
        assert _live_rows(root) == before
        assert int(_read_manifest(root).get("generation", 0)) == generation
        # The dataset is fully usable: a later compaction succeeds.
        summary = compact_saved_catalog(root)
        assert summary["rows_reclaimed"] == 3
        assert _live_rows(root) == before

    def test_crash_before_wal_truncate_does_not_double_apply(self, tmp_path):
        # The PR-6 regression: the manifest swap has happened but the stale
        # WAL (and formerly the stale append log) is still readable.  Replay
        # must skip the folded transactions instead of applying them twice.
        root = self._dataset_with_history(tmp_path)
        before = _live_rows(root)
        with faults.armed("compact.before_wal_truncate"):
            with pytest.raises(faults.InjectedCrash):
                compact_saved_catalog(root)
        manifest = _read_manifest(root)
        assert int(manifest.get("generation", 0)) == 1  # swap happened
        state = read_wal(root)
        assert state.committed  # folded txns still in the WAL
        assert applied_txn(manifest) >= state.last_txn
        summary = recover_saved_catalog(root)
        assert summary["replayed_txns"] == 0  # nothing re-applied
        assert _live_rows(root) == before
        # The next DML and compaction proceed normally on the new generation.
        append_rows_to_saved_catalog(root, "t", [{"id": 200, "v": 2.0, "s": "z"}])
        assert len(_live_rows(root)) == len(before) + 1
        compact_saved_catalog(root)
        assert len(_live_rows(root)) == len(before) + 1


class TestDurableCatalog:
    def test_commit_paths_leave_identical_live_rows(self, tmp_path):
        """One commit stream, three write paths: no WAL, WAL without fsync,
        WAL with fsync."""
        roots = [_saved_dataset(tmp_path / name) for name in ("plain", "nosync", "fsync")]
        controllers = [DurabilityController(roots[1], sync=False), DurabilityController(roots[2])]
        for commit in range(6):
            rows = [{"id": 100 + 4 * commit + i, "v": i / 4, "s": f"n{i}"} for i in range(4)]
            ops = [{"table": "t", "op": "append", "rows": rows}]
            if commit % 2:
                ops.append({"table": "t", "op": "delete", "positions": [commit, commit + 10]})
            apply_ops_to_saved_catalog(roots[0], ops)
            for controller in controllers:
                controller.commit_ops(ops)
        for controller in controllers:
            controller.reset_writer()
        plain = _live_rows(roots[0])
        assert len(plain) == 30 + 6 * 4 - 3 * 2
        assert _live_rows(roots[1]) == plain
        assert _live_rows(roots[2]) == plain

    def test_durable_commit_survives_reload(self, tmp_path):
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root, durable=True)
        assert catalog.durability is not None
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0, "s": "x"}])
        batch.delete("t", where="t.id < 2")
        batch.commit()
        assert catalog.get("t").num_live == 29
        reloaded = load_catalog(root)
        assert reloaded.get("t").num_live == 29
        assert _live_rows(root) == sorted(
            tuple(sorted(row.items()))
            for row in catalog.get("t").rows(
                np.flatnonzero(~catalog.get("t").delete_mask)
            )
        )

    def test_crashed_durable_commit_recovers_to_batch(self, tmp_path):
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root, durable=True)
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0, "s": "x"}])
        with faults.armed("manifest.before_rename"):
            with pytest.raises(faults.InjectedCrash):
                batch.commit()
        # The WAL committed before the crash, so the reopened dataset has the
        # batch even though the manifest write never finished.
        reloaded = load_catalog(root)
        assert reloaded.get("t").num_rows == 31

    def test_stale_writer_handle_is_reopened_after_external_rewrite(self, tmp_path):
        # A compaction in another process replaces wal.log by rename; the
        # cached writer handle is then bound to the unlinked inode and its
        # appends would be invisible to recovery.
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root, durable=True)
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0, "s": "x"}])
        batch.commit()  # caches the writer handle
        rewrite_wal(root, applied_txn(_read_manifest(root)), [])
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 101, "v": 2.0, "s": "y"}])
        batch.commit()
        state = read_wal(root)  # the live file, not the unlinked inode
        assert state.base_txn == 1
        assert [t.txn for t in state.committed] == [2]
        assert wal_status(root)["pending_txns"] == 0
        assert len(_live_rows(root)) == 32

    def test_failed_apply_after_wal_commit_poisons_the_controller(self, tmp_path):
        root = _saved_dataset(tmp_path)
        catalog = load_catalog(root, durable=True)
        batch = catalog.begin_mutation()
        batch.insert("t", [{"id": 100, "v": 1.0, "s": "x"}])
        with faults.armed("manifest.before_rename"):
            with pytest.raises(faults.InjectedCrash):
                batch.commit()
        # Disk durably committed the transaction, memory never applied it:
        # the controller must refuse further commits instead of diverging.
        assert catalog.durability.poisoned is not None
        retry = catalog.begin_mutation()
        retry.insert("t", [{"id": 101, "v": 2.0, "s": "y"}])
        with pytest.raises(WalError, match="poisoned"):
            retry.commit()
        # The documented way out: reload, which replays the WAL transaction.
        reloaded = load_catalog(root, durable=True)
        assert reloaded.get("t").num_rows == 31
        fresh = reloaded.begin_mutation()
        fresh.insert("t", [{"id": 101, "v": 2.0, "s": "y"}])
        fresh.commit()
        assert reloaded.get("t").num_rows == 32
        assert load_catalog(root).get("t").num_rows == 32
