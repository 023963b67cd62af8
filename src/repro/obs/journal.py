"""The event journal: a persistent, checksummed record of engine events.

The metrics registry and the stats store answer "what is happening *now*";
the journal answers "what happened" — across restarts.  It is an append-only
file of length-prefixed, crc32-checksummed JSON records (the framing the WAL
uses, :mod:`repro.storage.framing`, under its own magic)
recording query finishes, plan-cache re-plans, slow queries, compactions,
recoveries, write conflicts and detected plan regressions.

Crash semantics differ from the WAL deliberately:

* a **torn tail** (crash mid-append) is truncated when a writer reopens the
  file, exactly like the WAL — the half-written event never happened;
* a **corrupt record in the middle** (bit rot, concurrent scribbling) is
  *skipped*: the reader resynchronizes on the next magic marker and keeps
  going.  The WAL must stop — replaying past a gap could corrupt data — but
  the journal is observational, and one damaged event must not blind an
  operator to everything recorded after it.

Record format::

    record  := magic(4s = b"REVJ") | length(u32) | crc32(u32) | payload
    payload := UTF-8 JSON: {"kind": ..., "seq": N, "ts": unix_seconds, ...}

``seq`` is monotone across reopens (a writer resumes from the last intact
record), so gaps in the sequence reveal skipped/corrupt records.  Writers
may attach a sampled trace (``trace_sample_rate=``) to query events — a full
span tree on a fraction of traffic, without paying for tracing everywhere.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.storage.framing import pack_frame, unpack_frame

#: The journal's own magic — a WAL file is never mistaken for a journal.
JOURNAL_MAGIC = b"REVJ"

#: Default journal file name inside a dataset directory.
JOURNAL_NAME = "history.journal"


def encode_event(payload: dict) -> bytes:
    """One framed journal record for ``payload``."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return pack_frame(JOURNAL_MAGIC, body)


@dataclass(frozen=True)
class JournalScan:
    """Everything one pass over a journal file establishes.

    ``valid_length`` is the byte offset just past the last intact record —
    a writer reopening the file truncates there, dropping the torn tail.
    ``skipped`` counts corrupt stretches the reader resynchronized past
    (each stretch of garbage between two intact records counts once).
    """

    path: Path
    events: list[dict] = field(default_factory=list)
    valid_length: int = 0
    total_length: int = 0
    skipped: int = 0

    @property
    def last_seq(self) -> int:
        """Highest ``seq`` among intact records (-1 on an empty journal)."""
        seqs = [int(event.get("seq", -1)) for event in self.events]
        return max(seqs) if seqs else -1


def scan_journal(path: str | Path) -> JournalScan:
    """Scan a journal file, skipping corrupt records.

    Never raises on damage: an unreadable record advances the scan to the
    next magic marker (``skipped`` increments once per damaged stretch); a
    torn tail simply ends the scan.  A missing file scans as empty.
    """
    path = Path(path)
    if not path.exists():
        return JournalScan(path=path)
    data = path.read_bytes()
    events: list[dict] = []
    offset = 0
    valid_length = 0
    skipped = 0
    in_gap = False
    while offset < len(data):
        decoded = unpack_frame(data, offset, JOURNAL_MAGIC)
        if decoded is None:
            # Resynchronize on the next magic marker; count each contiguous
            # damaged stretch once.  No further marker = torn tail, stop.
            if not in_gap:
                skipped += 1
                in_gap = True
            next_magic = data.find(JOURNAL_MAGIC, offset + 1)
            if next_magic < 0:
                break
            offset = next_magic
            continue
        in_gap = False
        payload, offset = decoded
        events.append(payload)
        valid_length = offset
    if in_gap:
        # The trailing stretch is a torn tail, not a skipped-over record.
        skipped -= 1
    return JournalScan(
        path=path,
        events=events,
        valid_length=valid_length,
        total_length=len(data),
        skipped=skipped,
    )


def read_journal(path: str | Path) -> list[dict]:
    """All intact events in the journal at ``path`` (corrupt records skipped)."""
    return scan_journal(path).events


class EventJournal:
    """An append-only writer for one journal file.

    Opening scans the existing file, truncates any torn tail (half-written
    final record) and resumes the event sequence from the last intact
    record, so ``seq`` stays monotone across process restarts.  Appends are
    serialized by a lock and flushed to the OS on every event (no fsync —
    the journal is observational; losing the last events in a power cut is
    acceptable, a *misleading* journal is not, hence the checksums).

    ``trace_sample_rate`` is the fraction of query events that should carry
    a full trace attachment; :meth:`sample_trace` makes the (seeded,
    deterministic) per-event decision for callers that can trace on demand.
    """

    def __init__(
        self,
        path: str | Path,
        trace_sample_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be within [0, 1], got {trace_sample_rate}"
            )
        self.path = Path(path)
        self.trace_sample_rate = float(trace_sample_rate)
        self._random = random.Random(seed)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scan = scan_journal(self.path)
        if scan.total_length > scan.valid_length:
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.valid_length)
        self._seq = scan.last_seq + 1
        self._handle = open(self.path, "ab")

    def append(self, kind: str, **fields) -> dict:
        """Append one event; returns the payload as written (with seq/ts)."""
        with self._lock:
            payload = {"kind": kind, "seq": self._seq, "ts": time.time(), **fields}
            self._seq += 1
            self._handle.write(encode_event(payload))
            self._handle.flush()
            return payload

    def sample_trace(self) -> bool:
        """Should the next query event carry a trace attachment?"""
        if self.trace_sample_rate <= 0.0:
            return False
        if self.trace_sample_rate >= 1.0:
            return True
        with self._lock:
            return self._random.random() < self.trace_sample_rate

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended event will get."""
        return self._seq

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
