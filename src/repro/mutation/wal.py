"""The write-ahead log: durable mutation batches for saved datasets.

Every durable mutation (``repro insert`` / ``repro delete``, or an in-memory
:class:`~repro.mutation.batch.MutationBatch` committed against a catalog
loaded with ``load_catalog(root, durable=True)``) follows the same protocol:

1. the whole batch is appended to ``<root>/wal.log`` as one **transaction**
   — one checksummed, length-prefixed record per table operation followed by
   a ``commit`` marker record — and the file is fsync'd;
2. only then are the segment directories / deleted-position files written
   and the manifest updated (atomically, via temp-file + rename), recording
   the transaction number as applied (``manifest["wal"]["applied"]``).

A crash anywhere in between leaves one of exactly three disk states, all of
which :mod:`repro.mutation.recovery` resolves on the next open:

* a torn or uncommitted WAL tail (crash during step 1) — truncated, the
  batch never happened;
* a committed WAL transaction with partially applied effects (crash during
  step 2) — replayed idempotently from the WAL's own payload;
* a fully applied transaction — nothing to do.

**Record format** (framing: :mod:`repro.storage.framing`)::

    record  := magic(4s = b"RWAL") | length(u32) | crc32(u32) | payload
    payload := UTF-8 JSON: {"kind": "header", "format": 1, "base_txn": N}
                         | {"kind": "op", "txn": N, "table": t,
                            "op": "append", "rows": [...]}
                         | {"kind": "op", "txn": N, "table": t,
                            "op": "delete", "positions": [...]}
                         | {"kind": "commit", "txn": N}

Transaction numbers are absolute and monotone for the dataset's lifetime:
after online compaction rewrites the WAL, the header's ``base_txn`` records
how many transactions preceded the file, so ``manifest["wal"]["applied"]``
(also absolute) stays comparable across truncations — this is what makes a
crash *between* the compaction fold and the WAL truncation safe: recovery
sees the folded transactions are ≤ the applied watermark and skips them.

The module also provides the dataset write lock used by every mutating
operation: an in-process re-entrant lock per resolved root path, plus an
advisory ``flock`` on ``<root>/.lock`` (POSIX only) so concurrent *processes*
serialize their writes too.  The compaction lock is the same kind of lock on
``<root>/.compact.lock``: it serializes compactions only, so writers keep
committing while one runs.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.instruments import publish_wal_commit
from repro.obs.trace import ambient_span
from repro.storage.framing import pack_frame, unpack_frame
from repro.testing import faults

#: WAL file name inside a dataset directory.
WAL_NAME = "wal.log"

#: Advisory lock file name inside a dataset directory.
LOCK_NAME = ".lock"

#: Advisory lock file name a compaction holds for its whole run.
COMPACTION_LOCK_NAME = ".compact.lock"

_MAGIC = b"RWAL"

#: WAL format version written into header records.
WAL_FORMAT = 1


class WalError(ValueError):
    """Raised for unusable WAL files (never for torn tails — those recover)."""


# --------------------------------------------------------------------------- #
# Dataset write locks
# --------------------------------------------------------------------------- #
class _DatasetLock:
    """Re-entrant per-dataset lock: thread lock + advisory flock.

    The thread lock serializes holders inside one process; while the
    outermost level is held, an exclusive ``flock`` on ``<root>/<name>``
    additionally excludes holders in other processes (best effort: skipped
    where ``fcntl`` is unavailable).  Re-entrant so composed operations
    (recovery inside a load inside a delete) take it freely.
    """

    def __init__(self, root: Path, name: str) -> None:
        self.root = root
        self.name = name
        self._lock = threading.RLock()
        self._depth = 0
        self._fd: int | None = None

    def __enter__(self) -> "_DatasetLock":
        self._lock.acquire()
        self._depth += 1
        if self._depth == 1:
            self._flock()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._depth == 1:
            self._funlock()
        self._depth -= 1
        self._lock.release()

    def _flock(self) -> None:
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platforms
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.root / self.name, os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - exotic filesystems
            if self._fd is not None:
                os.close(self._fd)
            self._fd = None

    def _funlock(self) -> None:
        if self._fd is None:
            return
        try:
            import fcntl

            fcntl.flock(self._fd, fcntl.LOCK_UN)
        except (ImportError, OSError):  # pragma: no cover
            pass
        os.close(self._fd)
        self._fd = None


_locks: dict[tuple[str, str], _DatasetLock] = {}
_locks_guard = threading.Lock()


def _dataset_lock(root: str | Path, name: str) -> _DatasetLock:
    key = (os.path.realpath(root), name)
    with _locks_guard:
        lock = _locks.get(key)
        if lock is None:
            lock = _locks[key] = _DatasetLock(Path(root), name)
    return lock


def dataset_write_lock(root: str | Path) -> _DatasetLock:
    """The (process-wide) write lock of the dataset at ``root``.

    Use as a context manager; every mutating dataset operation — WAL
    appends, manifest updates, recovery, compaction swaps — runs inside it.
    """
    return _dataset_lock(root, LOCK_NAME)


def dataset_compaction_lock(root: str | Path) -> _DatasetLock:
    """The (process-wide) compaction lock of the dataset at ``root``.

    A compaction holds it from its pin to its trim, so two compactions never
    fold the same generation; taken before, never inside, the write lock.
    """
    return _dataset_lock(root, COMPACTION_LOCK_NAME)


# --------------------------------------------------------------------------- #
# Encoding / decoding
# --------------------------------------------------------------------------- #
def json_safe(value):
    """``value`` as a JSON-storable equivalent (NumPy scalars unwrapped)."""
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if hasattr(value, "item"):
        return value.item()
    return value


def encode_record(payload: dict) -> bytes:
    """One framed WAL record for ``payload``."""
    return pack_frame(_MAGIC, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


# --------------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WalTransaction:
    """One committed WAL transaction: its absolute number and its table ops."""

    txn: int
    ops: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class WalState:
    """Everything a scan of one WAL file establishes.

    ``valid_length`` is the byte offset just past the last *committed*
    transaction (or past the header when none committed) — everything beyond
    it is a torn record or an uncommitted transaction tail, and recovery
    truncates the file there.
    """

    path: Path
    base_txn: int
    committed: list[WalTransaction]
    valid_length: int
    total_length: int
    records: int

    @property
    def last_txn(self) -> int:
        """Highest committed transaction number (base when none committed)."""
        return self.committed[-1].txn if self.committed else self.base_txn

    @property
    def committed_txns(self) -> int:
        """Total committed transactions across the dataset's lifetime."""
        return self.last_txn

    @property
    def tail_bytes(self) -> int:
        """Bytes past the last committed transaction (0 on a clean WAL)."""
        return self.total_length - self.valid_length


def read_wal(root: str | Path) -> WalState | None:
    """Scan ``<root>/wal.log``; returns its :class:`WalState`, or None when
    the dataset has no WAL.  Never raises on torn or garbage tails — the scan
    simply stops at the first record that fails its frame or checksum."""
    path = Path(root) / WAL_NAME
    if not path.exists():
        return None
    data = path.read_bytes()

    decoded = unpack_frame(data, 0, _MAGIC)
    if decoded is None:
        # Unreadable header: treat the whole file as a torn tail.
        return WalState(path, 0, [], 0, len(data), 0)
    header, offset = decoded
    if header.get("kind") != "header":
        raise WalError(f"{path} does not start with a WAL header record")
    base_txn = int(header.get("base_txn", 0))

    committed: list[WalTransaction] = []
    pending_ops: list[dict] = []
    pending_txn: int | None = None
    valid_length = offset
    records = 1
    while offset < len(data):
        decoded = unpack_frame(data, offset, _MAGIC)
        if decoded is None:
            break  # torn record: everything from here on is tail
        payload, offset = decoded
        records += 1
        kind = payload.get("kind")
        if kind == "op":
            txn = int(payload["txn"])
            if pending_txn is not None and txn != pending_txn:
                break  # interleaved transactions never happen; corrupt tail
            pending_txn = txn
            pending_ops.append(
                {key: payload[key] for key in payload if key not in ("kind", "txn")}
            )
        elif kind == "commit":
            txn = int(payload["txn"])
            if pending_txn is not None and txn != pending_txn:
                break
            committed.append(WalTransaction(txn=txn, ops=pending_ops))
            pending_ops, pending_txn = [], None
            valid_length = offset
        else:
            break  # unknown record kind: stop, treat as tail
    return WalState(path, base_txn, committed, valid_length, len(data), records)


# --------------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------------- #
class WalWriter:
    """Appends transactions to one dataset's WAL.

    Opening the writer scans the existing file and truncates any torn or
    uncommitted tail (a crashed writer's leftovers must never be extended
    into accidental validity).  ``sync=False`` skips the fsync — the bench
    knob for measuring fsync cost; recovery semantics then only hold against
    process kills, not power loss.
    """

    def __init__(self, root: str | Path, sync: bool = True) -> None:
        self.root = Path(root)
        self.path = self.root / WAL_NAME
        self.sync = sync
        state = read_wal(self.root)
        if state is None or state.records == 0 or state.valid_length == 0:
            # No WAL — or one whose header never became readable (an empty
            # file, or a header torn by a crash during WAL creation).
            # Appending to a headerless file would produce a WAL that
            # read_wal rejects outright, making the dataset unloadable; the
            # file is rewritten from scratch instead.  The fresh header's
            # base_txn resumes from the manifest's applied watermark so
            # transaction numbers stay absolute and monotone.
            base = _applied_watermark(self.root)
            header = encode_record(
                {"kind": "header", "format": WAL_FORMAT, "base_txn": base}
            )
            self._file = open(self.path, "wb", buffering=0)
            self._file.write(header)
            self._next_txn = base + 1
        else:
            if state.tail_bytes:
                with open(self.path, "r+b") as handle:
                    handle.truncate(state.valid_length)
            self._file = open(self.path, "ab", buffering=0)
            self._next_txn = state.last_txn + 1

    def is_current(self) -> bool:
        """True while the open handle still refers to ``<root>/wal.log``.

        Online compaction — possibly in another process — replaces the WAL
        by rename; a writer left bound to the unlinked inode would append
        records no recovery scan will ever see.
        """
        try:
            return os.fstat(self._file.fileno()).st_ino == os.stat(self.path).st_ino
        except OSError:
            return False

    def append_transaction(self, ops: list[dict]) -> int:
        """Durably log one transaction; returns its absolute number.

        Writes every op record, then the commit marker, then fsyncs.  The
        transaction is committed the moment the marker's bytes are durable —
        the caller applies the effects to the dataset only afterwards.
        Publishes commit / fsync / byte counters into the metrics registry
        and, under an ambient tracer, wraps the append in a ``wal.commit``
        span.
        """
        with ambient_span("wal.commit", ops=len(ops)):
            txn = self._next_txn
            bytes_written = 0
            for op in ops:
                record = encode_record({"kind": "op", "txn": txn, **json_safe(op)})
                if faults.is_armed("wal.partial_record"):
                    self._file.write(record[: max(1, len(record) // 2)])
                    faults.fire("wal.partial_record")
                self._file.write(record)
                bytes_written += len(record)
            faults.fire("wal.after_record")
            marker = encode_record({"kind": "commit", "txn": txn})
            self._file.write(marker)
            bytes_written += len(marker)
            faults.fire("wal.before_fsync")
            if self.sync:
                os.fsync(self._file.fileno())
            self._next_txn = txn + 1
            publish_wal_commit(
                ops=len(ops),
                bytes_written=bytes_written,
                fsyncs=1 if self.sync else 0,
            )
            return txn

    def close(self) -> None:
        """Close the underlying file handle (the writer cannot be reused)."""
        self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def rewrite_wal(root: str | Path, base_txn: int, transactions: list[WalTransaction]) -> None:
    """Atomically replace the WAL with ``transactions`` on a new base.

    Online compaction calls this to drop folded transactions: the new file
    (header with the advanced ``base_txn`` plus the surviving transactions)
    is staged at ``wal.log.tmp``, fsync'd, and renamed over the old WAL.
    """
    root = Path(root)
    payload = [encode_record({"kind": "header", "format": WAL_FORMAT, "base_txn": base_txn})]
    for transaction in transactions:
        for op in transaction.ops:
            payload.append(encode_record({"kind": "op", "txn": transaction.txn, **op}))
        payload.append(encode_record({"kind": "commit", "txn": transaction.txn}))
    tmp = root / (WAL_NAME + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(b"".join(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, root / WAL_NAME)
    from repro.storage.disk import fsync_dir

    fsync_dir(root)


# --------------------------------------------------------------------------- #
# Status & durability controller
# --------------------------------------------------------------------------- #
def applied_txn(manifest: dict) -> int:
    """The manifest's applied-transaction watermark (0 for pre-WAL formats)."""
    return int(manifest.get("wal", {}).get("applied", 0))


def _applied_watermark(root: Path) -> int:
    """The dataset's applied watermark (0 when it has no manifest yet)."""
    from repro.storage.disk import MANIFEST_NAME, _read_manifest

    if not (root / MANIFEST_NAME).exists():
        return 0
    return applied_txn(_read_manifest(root))


def wal_status(root: str | Path) -> dict:
    """A summary of one dataset's WAL for ``repro wal status`` and tests.

    Keys: ``exists``, ``size_bytes``, ``records``, ``base_txn``,
    ``committed_txns`` (absolute), ``applied_txns`` (manifest watermark),
    ``pending_txns`` (committed but not yet applied — recovery will replay
    them) and ``tail_bytes`` (torn/uncommitted bytes recovery will drop).
    """
    from repro.storage.disk import MANIFEST_NAME, _read_manifest

    root = Path(root)
    state = read_wal(root)
    applied = 0
    if (root / MANIFEST_NAME).exists():
        applied = applied_txn(_read_manifest(root))
    if state is None:
        return {
            "exists": False,
            "size_bytes": 0,
            "records": 0,
            "base_txn": 0,
            "committed_txns": 0,
            "applied_txns": applied,
            "pending_txns": 0,
            "tail_bytes": 0,
        }
    return {
        "exists": True,
        "size_bytes": state.total_length,
        "records": state.records,
        "base_txn": state.base_txn,
        "committed_txns": state.committed_txns,
        "applied_txns": applied,
        "pending_txns": max(0, state.committed_txns - applied),
        "tail_bytes": state.tail_bytes,
    }


class DurabilityController:
    """Binds an in-memory catalog to its on-disk dataset via the WAL.

    Attached by ``load_catalog(root, durable=True)`` (as
    ``catalog.durability``); :meth:`repro.mutation.batch.MutationBatch.commit`
    calls :meth:`commit_ops` *before* applying a batch in memory, so the
    dataset directory replays to exactly the catalog's committed state after
    any crash.  One controller per root per process — the cached writer
    handle is revalidated against the WAL's inode on every commit (online
    compaction, possibly in another process, replaces the file by rename)
    and reset by an in-process compaction after it rewrites the WAL.

    A commit that fails *after* its WAL append **poisons** the controller:
    the transaction is durable on disk while the in-memory catalog never
    applied it, so letting further commits through would silently diverge
    from what the next ``load_catalog`` (which replays the WAL) observes.
    A poisoned controller raises :class:`WalError` on every subsequent
    commit; the way out is reloading the dataset, which runs recovery.
    """

    def __init__(self, root: str | Path, sync: bool = True) -> None:
        self.root = Path(root)
        self.sync = sync
        self._writer: WalWriter | None = None
        self._poisoned: str | None = None

    @property
    def poisoned(self) -> str | None:
        """Why this controller refuses commits (None while healthy)."""
        return self._poisoned

    def poison(self, reason: str) -> None:
        """Refuse all further commits: disk and memory are known to diverge."""
        self._poisoned = reason

    def commit_ops(self, ops: list[dict]) -> int:
        """WAL-log then apply ``ops`` to the saved dataset; returns the txn."""
        from repro.mutation.diskops import apply_ops_to_saved_catalog

        if self._poisoned is not None:
            raise WalError(
                f"durable catalog for {self.root} is poisoned "
                f"({self._poisoned}); reload it with load_catalog(root, "
                f"durable=True) to recover before committing again"
            )
        ops = [json_safe(op) for op in ops]
        with dataset_write_lock(self.root):
            if self._writer is not None and not self._writer.is_current():
                self.reset_writer()
            if self._writer is None:
                self._writer = WalWriter(self.root, sync=self.sync)
            try:
                txn = self._writer.append_transaction(ops)
                apply_ops_to_saved_catalog(
                    self.root, ops, wal_txn=txn, sync=self.sync
                )
            except BaseException:
                # The WAL may already hold the commit marker (or a torn tail
                # the cached handle would extend into garbage): either way
                # this process can no longer trust that its in-memory state
                # matches what recovery will reconstruct.
                self.poison("a durable commit failed mid-flight")
                raise
            return txn

    def reset_writer(self) -> None:
        """Drop the cached WAL handle (after compaction rewrote the file)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def attach_durability(catalog, root: str | Path, sync: bool = True) -> DurabilityController:
    """Attach a :class:`DurabilityController` for ``root`` to ``catalog``."""
    controller = DurabilityController(root, sync=sync)
    catalog.durability = controller
    return controller
