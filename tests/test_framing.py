"""The one record framing under the WAL and the event journal.

The hex literals below were produced by the pre-refactor encoders
(``repro.mutation.wal.encode_record`` / ``repro.obs.journal.encode_event``
when each module carried its own copy of the framing): files written before
the move to :mod:`repro.storage.framing` must keep loading, and new files
must be byte-for-byte what the old writers produced.
"""

from __future__ import annotations

from repro.mutation.wal import WAL_NAME, encode_record, read_wal
from repro.obs.journal import JOURNAL_MAGIC, encode_event, scan_journal
from repro.storage.framing import pack_frame, unpack_frame

WAL_PAYLOAD = {
    "kind": "op", "txn": 7, "table": "t", "op": "append",
    "rows": [{"id": 1, "name": "é"}],
}
WAL_BYTES = bytes.fromhex(
    "5257414c51000000854389de7b226b696e64223a226f70222c2274786e223a372c2274"
    "61626c65223a2274222c226f70223a22617070656e64222c22726f7773223a5b7b2269"
    "64223a312c226e616d65223a225c7530306539227d5d7d"
)
JOURNAL_PAYLOAD = {"kind": "query", "seq": 2, "ts": 1.5, "planner": "tcombined", "rows": 3}
JOURNAL_BYTES = bytes.fromhex(
    "5245564a400000007cba3c587b226b696e64223a227175657279222c22706c616e6e65"
    "72223a2274636f6d62696e6564222c22726f7773223a332c22736571223a322c227473"
    "223a312e357d"
)


def test_parent_written_records_decode_and_reencode_identically():
    assert unpack_frame(WAL_BYTES, 0, b"RWAL") == (WAL_PAYLOAD, len(WAL_BYTES))
    assert encode_record(WAL_PAYLOAD) == WAL_BYTES
    assert unpack_frame(JOURNAL_BYTES, 0, JOURNAL_MAGIC) == (
        JOURNAL_PAYLOAD, len(JOURNAL_BYTES),
    )
    assert encode_event(JOURNAL_PAYLOAD) == JOURNAL_BYTES


def test_damaged_or_foreign_bytes_are_not_a_record():
    assert unpack_frame(WAL_BYTES, 0, JOURNAL_MAGIC) is None  # other file's magic
    assert unpack_frame(WAL_BYTES[:-1], 0, b"RWAL") is None  # torn body
    assert unpack_frame(WAL_BYTES[:9], 0, b"RWAL") is None  # torn header
    flipped = WAL_BYTES[:-2] + b"X" + WAL_BYTES[-1:]
    assert unpack_frame(flipped, 0, b"RWAL") is None  # checksum mismatch
    assert unpack_frame(pack_frame(b"RWAL", b"[1,2]"), 0, b"RWAL") is None  # not an object


def test_readers_keep_their_own_damage_policy(tmp_path):
    """Same garbage mid-file: the WAL stops there, the journal resyncs past it."""
    header = encode_record({"kind": "header", "format": 1, "base_txn": 0})
    commits = [encode_record({"kind": "commit", "txn": txn}) for txn in (1, 2)]
    (tmp_path / WAL_NAME).write_bytes(header + commits[0] + b"garbage" + commits[1])
    state = read_wal(tmp_path)
    assert [t.txn for t in state.committed] == [1]
    assert state.valid_length == len(header + commits[0])

    events = [encode_event({"kind": "query", "seq": seq}) for seq in (0, 1)]
    journal = tmp_path / "h.journal"
    journal.write_bytes(events[0] + b"garbage" + events[1])
    scan = scan_journal(journal)
    assert [e["seq"] for e in scan.events] == [0, 1]
    assert scan.skipped == 1
