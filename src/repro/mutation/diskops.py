"""The on-disk append log: mutating saved catalogs without rewriting them.

A saved dataset (see :mod:`repro.storage.disk`) is mutated by *appending*:

* ``append_rows_to_saved_catalog`` writes the new rows as a **segment
  directory** (``<table>/segment-<n>/<column>.values.npy`` + NULL masks) and
  records an ``append`` delta in the manifest's ordered ``mutations`` list —
  the base column files are untouched, so the write cost is O(new rows);
* ``delete_rows_from_saved_catalog`` evaluates a predicate against the
  current state and records the matching positions as a ``delete`` delta
  (``<table>/delete-<n>.npy``);
* :func:`repro.storage.disk.load_catalog` replays the records in order
  (``snapshot=K`` stops after K — time-travel reads);
* ``compact_saved_catalog`` folds the log back into flat column files,
  dropping deleted rows and carrying exact statistics and index sidecars
  through the live-row map.

Replay goes through the same column-extension / delete-bitmap primitives as
in-memory commits, so a loaded catalog is indistinguishable from one whose
mutations were applied live.

Since format v4 every mutation is **write-ahead logged** first: the public
append/delete entry points frame the operation as a JSON op, append it to
the dataset's WAL as one committed transaction (see
:mod:`repro.mutation.wal`), and only then let
:func:`apply_ops_to_saved_catalog` write the segment / delete files and the
manifest (atomically, recording the transaction as applied).  A crash
anywhere in between is repaired by :mod:`repro.mutation.recovery`, which
replays exactly this same ``apply_ops_to_saved_catalog`` from the WAL's own
payload — application is idempotent because file names derive from the
manifest's ``file_seq`` counter and the manifest only advances in the final
atomic rename.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.mutation.batch import MutationError, extend_column
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.disk import (
    CatalogFormatError,
    FORMAT_VERSION,
    MANIFEST_NAME,
    _read_manifest,
    _values_for_save,
    _write_manifest,
    fsync_dir,
    fsync_file,
    load_catalog,
    read_csv_rows,
)
from repro.testing import faults


# --------------------------------------------------------------------------- #
# Manifest helpers
# --------------------------------------------------------------------------- #
def _table_entry(manifest: dict, table: str) -> dict:
    for entry in manifest.get("tables", []):
        if entry["name"] == table:
            return entry
    raise CatalogFormatError(f"unknown table {table!r} in {MANIFEST_NAME}")


def _mutation_records(manifest: dict) -> list[dict]:
    return manifest.setdefault("mutations", [])


def _next_file_seq(manifest: dict) -> int:
    """The naming counter for segment dirs / delete files.

    v4 manifests persist it (``file_seq``) so compaction — which drops
    records from the ``mutations`` list — never re-issues a name an old
    pinned snapshot (or a crashed compaction's leftovers) might still hold.
    v3 manifests named files after the record index; the counts coincide, so
    the fallback is exact.
    """
    return int(manifest.get("file_seq", len(manifest.get("mutations", []))))


# --------------------------------------------------------------------------- #
# Applying WAL-framed ops to the directory
# --------------------------------------------------------------------------- #
def apply_ops_to_saved_catalog(
    root: str | Path, ops: list[dict], wal_txn: int | None = None, sync: bool = True
) -> list[dict]:
    """Write one WAL transaction's ``ops`` into the dataset directory.

    Each op is the JSON payload logged to the WAL —
    ``{"table": t, "op": "append", "rows": [...]}``
    or ``{"table": t, "op": "delete", "positions": [...]}`` — and becomes
    one segment directory / delete-position file plus one manifest delta
    record.  Every data file (and its directory) is fsync'd **before** the
    manifest is rewritten — once, atomically, with ``wal.applied`` advanced
    to ``wal_txn``: the rename is the transaction's single apply point, and
    the ordering guarantees a power loss can never leave a durable manifest
    pointing at undurable segment data (which recovery would then skip
    replaying, since the watermark already covers the transaction).
    ``sync=False`` skips the data fsyncs — the same bench knob as the WAL's:
    recovery then only holds against process kills, not power loss.

    Idempotent by construction, which is what crash recovery relies on when
    it replays a committed-but-unapplied transaction: if ``wal.applied``
    already covers ``wal_txn`` the call is a no-op, and if a previous
    attempt crashed mid-way the manifest never advanced, so file names
    (derived from the persisted ``file_seq`` counter) come out identical and
    the leftovers are simply overwritten.

    Returns the manifest records appended.
    """
    root = Path(root)
    manifest = _read_manifest(root)
    if wal_txn is not None:
        applied = int(manifest.get("wal", {}).get("applied", 0))
        if applied >= wal_txn:
            return []  # recovery re-run: this transaction already landed
    file_seq = _next_file_seq(manifest)
    records = []
    written: list[Path] = []
    for op in ops:
        table = op["table"]
        entry = _table_entry(manifest, table)
        directory = root / entry.get("dir", table)
        if op["op"] == "append":
            record, files = _apply_append(directory, entry, op["rows"], file_seq)
            records.append(record)
            written.extend(files)
        elif op["op"] == "delete":
            positions = np.asarray(op["positions"], dtype=np.int64)
            positions_file = f"delete-{file_seq:04d}.npy"
            directory.mkdir(parents=True, exist_ok=True)
            np.save(directory / positions_file, positions)
            written.append(directory / positions_file)
            records.append(
                {
                    "table": table,
                    "op": "delete",
                    "rows": int(positions.size),
                    "positions": positions_file,
                }
            )
        else:
            raise MutationError(f"unknown mutation op {op.get('op')!r}")
        file_seq += 1
    if sync and written:
        for path in written:
            fsync_file(path)
        directories = set()
        for path in written:
            # The file's directory, plus the directory holding a freshly
            # created segment dir — both entries must survive power loss
            # before the manifest claims the transaction applied.
            directories.add(path.parent)
            directories.add(path.parent.parent)
        for directory in directories:
            fsync_dir(directory)
    _mutation_records(manifest).extend(records)
    manifest["file_seq"] = file_seq
    manifest["format_version"] = FORMAT_VERSION
    if wal_txn is not None:
        manifest.setdefault("wal", {})["applied"] = wal_txn
    _write_manifest(root, manifest)
    return records


def _apply_append(
    directory: Path, entry: dict, rows: list[dict], file_seq: int
) -> tuple[dict, list[Path]]:
    types = {column["name"]: ColumnType(column["type"]) for column in entry["columns"]}
    page_sizes = {
        column["name"]: int(column.get("page_size", 1024)) for column in entry["columns"]
    }
    segment_dir = directory / f"segment-{file_seq:04d}"
    if segment_dir.exists():
        # Leftover of a crashed earlier attempt at this same transaction
        # (the manifest never advanced, so the name repeats): start clean.
        shutil.rmtree(segment_dir)
    segment_dir.mkdir(parents=True)
    written: list[Path] = []
    first = True
    for name, ctype in types.items():
        column = Column(
            name,
            [row.get(name) for row in rows],
            ctype=ctype,
            page_size=page_sizes[name],
        )
        values_path = segment_dir / f"{name}.values.npy"
        np.save(values_path, _values_for_save(column.data, ctype))
        written.append(values_path)
        if first:
            faults.fire("segment.partial_write")
            first = False
        nulls_path = segment_dir / f"{name}.nulls.npy"
        np.save(nulls_path, column.null_mask)
        written.append(nulls_path)
    record = {
        "table": entry["name"],
        "op": "append",
        "rows": len(rows),
        "segment": segment_dir.name,
    }
    return record, written


def _wal_commit(root: Path, ops: list[dict]) -> list[dict]:
    """WAL-log ``ops`` as one transaction, then apply them to the directory."""
    from repro.mutation.wal import WalWriter, dataset_write_lock, json_safe

    ops = [json_safe(op) for op in ops]
    with dataset_write_lock(root):
        with WalWriter(root) as writer:
            txn = writer.append_transaction(ops)
        return apply_ops_to_saved_catalog(root, ops, wal_txn=txn)


# --------------------------------------------------------------------------- #
# Appends
# --------------------------------------------------------------------------- #
def append_rows_to_saved_catalog(root: str | Path, table: str, rows) -> dict:
    """Append ``rows`` (dicts of column -> value) to a saved dataset.

    WAL-logs the batch, then writes one segment directory plus one manifest
    delta record; the base column files are never read or rewritten, so
    appending is O(len(rows)).  Returns the delta record.
    """
    root = Path(root)
    manifest = _read_manifest(root)
    entry = _table_entry(manifest, table)
    types = {column["name"]: ColumnType(column["type"]) for column in entry["columns"]}
    rows = [dict(row) for row in rows]
    if not rows:
        raise MutationError("append requires at least one row")
    for row in rows:
        unknown = set(row) - set(types)
        if unknown:
            raise MutationError(
                f"row for table {table!r} names unknown columns: {sorted(unknown)}"
            )
    records = _wal_commit(root, [{"table": table, "op": "append", "rows": rows}])
    return records[0]


# --------------------------------------------------------------------------- #
# Deletes
# --------------------------------------------------------------------------- #
def delete_rows_from_saved_catalog(root: str | Path, table: str, where) -> dict:
    """Delete the rows of ``table`` matching the ``where`` predicate.

    The predicate (SQL expression string or
    :class:`~repro.expr.ast.BooleanExpr`) is evaluated against the dataset's
    *current* state (base + every earlier delta); the matching live
    positions are WAL-logged and recorded as one ``delete`` delta
    (``<table>/delete-<n>.npy``).  Returns the record (``rows`` may be 0 —
    the record is still appended so snapshots stay addressable).
    """
    from repro.mutation.batch import _matching_live_positions
    from repro.mutation.wal import dataset_write_lock

    root = Path(root)
    with dataset_write_lock(root):
        # Only the target table is needed to evaluate the predicate; a
        # filtered load keeps a one-table delete O(table) instead of
        # O(dataset).  Evaluation runs inside the dataset write lock so the
        # matched positions cannot go stale before the WAL commit below.
        catalog = load_catalog(root, tables=[table])
        table_obj = catalog.get(table)
        positions = _matching_live_positions(table_obj, where)
        records = _wal_commit(
            root,
            [
                {
                    "table": table,
                    "op": "delete",
                    "positions": [int(p) for p in positions],
                }
            ],
        )
    return records[0]


# --------------------------------------------------------------------------- #
# Replay (called by repro.storage.disk.load_catalog)
# --------------------------------------------------------------------------- #
def replay_saved_mutations(
    catalog: Catalog,
    records: list[dict],
    root: Path,
    dirs: dict[str, str] | None = None,
) -> None:
    """Apply manifest delta ``records`` (in order) to a freshly loaded catalog.

    Uses the same extension primitives as in-memory commits: appended
    segments extend the columns (merging the seeded statistics), deletes
    extend the tables' bitmaps.

    Append records are coalesced **per table**: each table's appends buffer
    up and apply as one column extension, flushed only when a delete record
    for *that* table arrives (its positions may reference the buffered
    rows).  Records for different tables commute — an append or delete on
    table B cannot move table A's row positions — so a long interleaved
    multi-table log still costs one concatenation per column per table
    (O(final size), not O(records x size)).

    ``dirs`` maps table names to their (generation-suffixed, v4) directory
    names; tables not listed live in the default ``<root>/<table>/``.
    """
    dirs = dirs or {}
    pending: dict[str, list[dict]] = {}

    def table_directory(table_name: str) -> Path:
        return root / dirs.get(table_name, table_name)

    def flush_appends(table_name: str) -> None:
        run = pending.pop(table_name, None)
        if not run:
            return
        table = catalog.get(table_name)
        columns = [
            extend_column(
                column, _combined_segment(table_directory(table_name), table_name, column, run)
            )
            for column in table.columns()
        ]
        catalog.apply_mutation(
            {table_name: table.next_version(columns, np.empty(0, dtype=np.int64))}
        )

    for record in records:
        table_name = record["table"]
        if record["op"] == "append":
            pending.setdefault(table_name, []).append(record)
        elif record["op"] == "delete":
            flush_appends(table_name)
            table = catalog.get(table_name)
            positions_path = table_directory(table_name) / record["positions"]
            if not positions_path.exists():
                raise CatalogFormatError(f"missing delete record {positions_path}")
            positions = np.load(positions_path, allow_pickle=False).astype(np.int64)
            if positions.size and (
                positions.min() < 0
                or positions.max() >= table.num_rows
                or np.unique(positions).size != positions.size
                or (table.delete_mask is not None and table.delete_mask[positions].any())
            ):
                raise CatalogFormatError(
                    f"delete record {positions_path.name} is out of range, repeated or "
                    f"already deleted for table {table_name!r}"
                )
            catalog.apply_mutation({table_name: table.next_version(table.columns(), positions)})
        else:
            raise CatalogFormatError(f"unknown mutation op {record.get('op')!r}")
    for table_name in list(pending):
        flush_appends(table_name)


def _combined_segment(directory: Path, table_name: str, column, run: list[dict]) -> Column:
    """One column's appended values across a run of append records."""
    values_parts = []
    nulls_parts = []
    for record in run:
        segment_dir = directory / record["segment"]
        values_path = segment_dir / f"{column.name}.values.npy"
        nulls_path = segment_dir / f"{column.name}.nulls.npy"
        if not values_path.exists() or not nulls_path.exists():
            raise CatalogFormatError(
                f"missing segment files for {table_name}.{column.name} "
                f"in {segment_dir.name}"
            )
        values = np.load(values_path, allow_pickle=False)
        if values.shape[0] != int(record["rows"]):
            raise CatalogFormatError(
                f"segment {segment_dir.name} of {table_name} holds "
                f"{values.shape[0]} rows but the record says {record['rows']}"
            )
        values_parts.append(values)
        nulls_parts.append(np.load(nulls_path, allow_pickle=False))
    return Column(
        column.name,
        values_parts[0] if len(values_parts) == 1 else np.concatenate(values_parts),
        ctype=column.ctype,
        null_mask=(
            nulls_parts[0] if len(nulls_parts) == 1 else np.concatenate(nulls_parts)
        ),
        page_size=column.page_size,
    )


# --------------------------------------------------------------------------- #
# Compaction
# --------------------------------------------------------------------------- #
def compact_saved_catalog(root: str | Path) -> dict:
    """Fold a dataset's append log into flat column files.

    Delegates to :class:`repro.mutation.compact.Compactor`: the folded state
    is staged into fresh generation directories and swapped in by a single
    atomic manifest rename, then the WAL is truncated past the fold point —
    a crash at any moment leaves either the old or the new state fully
    intact (the pre-v4 implementation rewrote base files in place and could
    leave a stale append log readable if killed between the fold and the
    log truncation).  The dataset write lock is released during the fold,
    so concurrent writers keep committing; their transactions are rebased
    onto the new generation at swap time.  Returns a summary dictionary.
    """
    from repro.mutation.compact import Compactor

    return Compactor(root).run()


# --------------------------------------------------------------------------- #
# Row sources for the CLI
# --------------------------------------------------------------------------- #
def rows_from_csv(path: str | Path, types: dict[str, ColumnType]) -> list[dict]:
    """Read append rows from a CSV file with a header (empty cells = NULL)."""
    header, rows = read_csv_rows(path, types, MutationError)
    return [dict(zip(header, row)) for row in rows]


def rows_from_json(text: str) -> list[dict]:
    """Parse append rows from a JSON array of objects (or one object)."""
    payload = json.loads(text)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not all(
        isinstance(row, dict) for row in payload
    ):
        raise MutationError("--values expects a JSON object or array of objects")
    return payload


def saved_table_types(root: str | Path, table: str) -> dict[str, ColumnType]:
    """Column name -> type of one saved table (manifest only, no data read)."""
    entry = _table_entry(_read_manifest(Path(root)), table)
    return {column["name"]: ColumnType(column["type"]) for column in entry["columns"]}
