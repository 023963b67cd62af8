"""On-disk catalogs: save and load tables as a directory of column files.

Basilisk stores its data on disk and reads it with direct I/O through an LFU
page cache; this repository simulates the paged reads (see
:mod:`repro.storage.column` and :mod:`repro.storage.pagecache`) but keeps the
arrays in memory.  For workflows that need datasets to persist between runs —
the CLI's ``generate`` / ``query`` commands, long benchmark campaigns — this
module provides a simple columnar on-disk format:

```
<root>/
  catalog.json              # manifest: tables, columns, types, row counts,
                            # per-column statistics, index/zone-map registry,
                            # append-log delta records (format v3)
  <table>/<column>.values.npy
  <table>/<column>.nulls.npy
  <table>/_deleted.npy                 # base delete bitmap (format v3)
  <table>/<column>.<kind>.index.npz    # secondary-index sidecar (format v2)
  <table>/<column>.zonemap.npz         # zone-map sidecar (format v2)
  <table>/segment-<n>/<column>.values.npy   # appended rows (format v3)
  <table>/segment-<n>/<column>.nulls.npy
  <table>/delete-<n>.npy               # deleted positions (format v3)
```

Values are stored with ``numpy.save`` (strings as fixed-width unicode, never
pickled); NULL masks are stored alongside.  A CSV import/export pair is
included for interoperability with external tools.

**Format versions.**  Version 2 adds per-column statistics metadata
(distinct count, min/max, null count) to the manifest — a loaded catalog
seeds its in-memory statistic caches from it and therefore plans identically
to the catalog it was saved from without recomputing — plus sidecar files
for secondary indexes and zone maps, which are re-registered on an
:class:`~repro.access.manager.AccessPathManager` attached to the loaded
catalog.  Version 3 adds the **append log**: ``repro insert`` / ``repro
delete`` write segment directories / deleted-position files plus an ordered
``mutations`` list of delta records in the manifest, *without rewriting the
base column files*; :func:`load_catalog` replays the records (all of them,
or the first ``snapshot=K`` for time-travel reads) through the mutation
subsystem, and index/zone-map sidecars that predate some records are
incrementally *extended* to catch up rather than rebuilt.  ``repro
compact`` folds the log back into flat column files.  Version 4 adds
**durability**: mutations are WAL-logged before they touch the directory
(see :mod:`repro.mutation.wal`), the manifest records the applied-WAL
watermark (``"wal": {"applied": N}``), manifests are written atomically
(temp file + rename), and online compaction folds into *generation*
directories (``<table>.g<G>/``, recorded per table as ``"dir"``) swapped in
by a single manifest rename.  :func:`load_catalog` runs crash recovery
first whenever a WAL is present.  Version-1/2/3 directories still load.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.storage.catalog import Catalog
from repro.storage.column import DEFAULT_PAGE_SIZE, Column, ColumnType
from repro.storage.table import Table

#: Manifest file name inside a catalog directory.
MANIFEST_NAME = "catalog.json"

#: Format version written into manifests (bump on incompatible changes).
FORMAT_VERSION = 4

#: Manifest versions :func:`load_catalog` understands.
SUPPORTED_VERSIONS = (1, 2, 3, 4)

#: File holding a table's base delete bitmap (format v3).
DELETE_MASK_NAME = "_deleted.npy"


class CatalogFormatError(ValueError):
    """Raised when an on-disk catalog is missing or malformed."""


# --------------------------------------------------------------------------- #
# Saving
# --------------------------------------------------------------------------- #
def _values_for_save(values: np.ndarray, ctype: ColumnType | None = None) -> np.ndarray:
    if ctype is ColumnType.STRING or values.dtype == np.dtype(object):
        return values.astype(str)
    return values


def _stat_value_for_json(value):
    """A min/max statistic as a JSON-storable value (NumPy scalars unwrapped)."""
    if value is None:
        return None
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        # NaN/inf are not valid JSON; drop the bound rather than corrupt the
        # manifest (the loader falls back to lazy computation).
        return None
    return value


def _column_manifest_entry(column: Column) -> dict:
    bounds = column.min_max()
    min_value = max_value = None
    bounds_known = True
    if bounds is not None:
        min_value = _stat_value_for_json(bounds[0])
        max_value = _stat_value_for_json(bounds[1])
        if min_value is None or max_value is None:
            bounds_known = False  # non-finite float bounds: recompute on load
    return {
        "name": column.name,
        "type": column.ctype.value,
        "page_size": column.page_size,
        "distinct_count": column.distinct_count(),
        "null_count": int(column.null_mask.sum()),
        "min_value": min_value,
        "max_value": max_value,
        "bounds_known": bounds_known,
    }


def save_table(table: Table, directory: Path) -> None:
    """Write one table's column files (and delete bitmap) into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for column in table.columns():
        np.save(
            directory / f"{column.name}.values.npy",
            _values_for_save(column.data, column.ctype),
        )
        np.save(directory / f"{column.name}.nulls.npy", column.null_mask)
    mask_path = directory / DELETE_MASK_NAME
    if table.has_deletes():
        np.save(mask_path, table.delete_mask)
    elif mask_path.exists():
        mask_path.unlink()


def _index_sidecar_name(column: str, kind: str) -> str:
    return f"{column}.{kind}.index.npz"


def _zonemap_sidecar_name(column: str) -> str:
    return f"{column}.zonemap.npz"


def _save_arrays(path: Path, arrays: dict) -> None:
    np.savez(
        path,
        **{name: _values_for_save(np.asarray(array)) for name, array in arrays.items()},
    )


def _access_manifest_entries(catalog: Catalog, root: Path) -> tuple[list, list]:
    """Write access-path sidecars; returns (index entries, zone-map entries)."""
    manager = catalog.access_manager
    if manager is None:
        return [], []
    index_entries = []
    for definition in manager.list_indexes():
        materialized = manager.index_for(definition.table, definition.column)
        file_name = _index_sidecar_name(definition.column, definition.kind)
        _save_arrays(root / definition.table / file_name, materialized.to_arrays())
        index_entries.append(
            {
                "table": definition.table,
                "column": definition.column,
                "kind": definition.kind,
                "file": file_name,
                # Physical rows the sidecar covers: a later append-log load
                # extends the structure from here instead of rebuilding.
                "rows": catalog.get(definition.table).num_rows,
            }
        )
    zone_entries = []
    for table_name, zone_map in manager.zone_maps_built():
        file_name = _zonemap_sidecar_name(zone_map.column_name)
        _save_arrays(root / table_name / file_name, zone_map.to_arrays())
        zone_entries.append(
            {
                "table": table_name,
                "column": zone_map.column_name,
                "file": file_name,
                "rows": catalog.get(table_name).num_rows,
            }
        )
    return index_entries, zone_entries


def save_catalog(catalog: Catalog, root: str | Path) -> Path:
    """Write every table of ``catalog`` under ``root`` and return the root path.

    Besides the column files, the version-2 manifest records per-column
    statistics (so loads plan without recomputing) and — when the catalog
    carries an access manager — sidecar files for every registered secondary
    index and every materialized zone map.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    manifest = {"format_version": FORMAT_VERSION, "tables": []}
    for table in catalog:
        save_table(table, root / table.name)
        entry = {
            "name": table.name,
            "num_rows": table.num_rows,
            "columns": [_column_manifest_entry(column) for column in table.columns()],
        }
        if table.has_deletes():
            entry["delete_mask"] = DELETE_MASK_NAME
        manifest["tables"].append(entry)
    indexes, zone_maps = _access_manifest_entries(catalog, root)
    if indexes:
        manifest["indexes"] = indexes
    if zone_maps:
        manifest["zone_maps"] = zone_maps

    # A full save folds everything the catalog holds into flat base files, so
    # every committed WAL transaction is by definition applied: record the
    # watermark so recovery on the next open replays nothing.
    from repro.mutation.wal import read_wal

    wal_state = read_wal(root)
    if wal_state is not None:
        manifest["wal"] = {"applied": wal_state.last_txn}

    _write_manifest(root, manifest)
    _remove_stale_generation_dirs(root, manifest)
    return root


def table_dir(root: Path, table_entry: dict) -> Path:
    """The directory holding one table's files (generation-aware, v4)."""
    return Path(root) / table_entry.get("dir", table_entry["name"])


def _saved_table_dir(root: Path, manifest: dict, table: str) -> Path:
    """``table``'s directory as the saved manifest records it."""
    for entry in manifest.get("tables", []):
        if entry["name"] == table:
            return table_dir(root, entry)
    return Path(root) / table


def _remove_stale_generation_dirs(root: Path, manifest: dict) -> None:
    """Delete ``<table>.g<N>`` directories the manifest no longer references.

    Left behind when a crash interrupts online compaction before its swap, or
    by the previous generation after a successful swap.
    """
    import re
    import shutil

    live = {table_dir(root, entry).name for entry in manifest.get("tables", [])}
    pattern = re.compile(r"\.g\d+$")
    for child in root.iterdir():
        if child.is_dir() and pattern.search(child.name) and child.name not in live:
            shutil.rmtree(child, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #
def _load_column(directory: Path, entry: dict, ctype: ColumnType) -> Column:
    name = entry["name"]
    values_path = directory / f"{name}.values.npy"
    nulls_path = directory / f"{name}.nulls.npy"
    if not values_path.exists() or not nulls_path.exists():
        raise CatalogFormatError(f"missing column files for {directory.name}.{name}")
    values = np.load(values_path, allow_pickle=False)
    nulls = np.load(nulls_path, allow_pickle=False)
    if ctype is ColumnType.STRING:
        values = values.astype(object)
    column = Column(
        name,
        values,
        ctype=ctype,
        null_mask=nulls,
        # v1 manifests did not record page geometry; they were always
        # written with the default page size.
        page_size=int(entry.get("page_size", DEFAULT_PAGE_SIZE)),
    )
    _seed_column_statistics(column, entry, ctype)
    return column


def _seed_column_statistics(column: Column, entry: dict, ctype: ColumnType) -> None:
    """Seed the column's statistic caches from v2 manifest metadata."""
    distinct = entry.get("distinct_count")
    if distinct is None:
        return
    bounds_known = bool(entry.get("bounds_known", False))
    min_value, max_value = entry.get("min_value"), entry.get("max_value")
    min_max = None
    if min_value is not None and max_value is not None:
        if ctype is ColumnType.FLOAT:
            min_max = (float(min_value), float(max_value))
        else:
            min_max = (min_value, max_value)
    elif bounds_known:
        min_max = None  # all-NULL column
    else:
        bounds_known = False
    column.seed_statistics(
        distinct_count=int(distinct), min_max=min_max, min_max_known=bounds_known
    )


def _load_arrays(path: Path) -> dict:
    with np.load(path, allow_pickle=False) as payload:
        return {name: payload[name] for name in payload.files}


def _restore_access_paths(
    catalog: Catalog,
    manifest: dict,
    root: Path,
    bounded: bool = False,
    dirs: dict[str, str] | None = None,
) -> None:
    """Re-register persisted indexes and zone maps on the loaded catalog.

    A sidecar records how many physical rows it covered when written
    (``rows``); when the replayed append log has grown the table past that,
    the loaded structure is *extended* for the missing tail — the
    incremental-maintenance path — instead of being discarded.

    ``bounded`` marks a ``snapshot=K`` time-travel load: a sidecar written
    *after* the replay cutoff legitimately covers more rows than the
    snapshot holds, so it is skipped (the index definition simply does not
    exist yet at that point in history) instead of treated as corruption.
    """
    index_entries = manifest.get("indexes", [])
    zone_entries = manifest.get("zone_maps", [])
    if not index_entries and not zone_entries:
        return
    from repro.access.indexes import BitmapIndex, IndexDef, SortedIndex
    from repro.access.manager import ensure_access_manager
    from repro.access.zonemap import ColumnZoneMap, extend_zone_map

    dirs = dirs or {}
    manager = ensure_access_manager(catalog)
    for entry in index_entries:
        path = root / dirs.get(entry["table"], entry["table"]) / entry["file"]
        if not path.exists():
            raise CatalogFormatError(f"missing index sidecar {path}")
        column = catalog.get(entry["table"]).column(entry["column"])
        covered = int(entry.get("rows", len(column)))
        if covered > len(column):
            if bounded:
                continue  # sidecar postdates the requested snapshot
            raise CatalogFormatError(
                f"index sidecar {path} covers {covered} rows but table has {len(column)}"
            )
        arrays = _load_arrays(path)
        kind = entry["kind"]
        index_cls = BitmapIndex if kind == "bitmap" else SortedIndex
        materialized = index_cls.from_arrays(
            _coerce_index_arrays(arrays, catalog, entry)
        )
        if covered < len(column):
            materialized = materialized.extended(column, covered)
        manager.register_loaded_index(
            IndexDef(entry["table"], entry["column"], kind), materialized
        )
    for entry in zone_entries:
        path = root / dirs.get(entry["table"], entry["table"]) / entry["file"]
        if not path.exists():
            raise CatalogFormatError(f"missing zone-map sidecar {path}")
        column = catalog.get(entry["table"]).column(entry["column"])
        covered = int(entry.get("rows", len(column)))
        if covered > len(column):
            if bounded:
                continue
            raise CatalogFormatError(
                f"zone-map sidecar {path} covers {covered} rows but table has {len(column)}"
            )
        arrays = _load_arrays(path)
        arrays = _coerce_zonemap_arrays(arrays, catalog, entry)
        zone_map = ColumnZoneMap.from_arrays(entry["column"], arrays)
        if covered < len(column):
            zone_map = extend_zone_map(zone_map, column, covered)
        manager.register_loaded_zone_map(entry["table"], zone_map)


def _coerce_index_arrays(arrays: dict, catalog: Catalog, entry: dict) -> dict:
    """Convert persisted unicode value arrays back to object dtype."""
    column = catalog.get(entry["table"]).column(entry["column"])
    if column.ctype is not ColumnType.STRING:
        return arrays
    out = dict(arrays)
    for name in ("values", "sorted_values"):
        if name in out:
            out[name] = out[name].astype(object)
    return out


def _coerce_zonemap_arrays(arrays: dict, catalog: Catalog, entry: dict) -> dict:
    column = catalog.get(entry["table"]).column(entry["column"])
    if column.ctype is not ColumnType.STRING:
        return arrays
    out = dict(arrays)
    for name in ("mins", "maxs"):
        out[name] = out[name].astype(object)
    return out


def load_catalog(
    root: str | Path,
    snapshot: int | None = None,
    tables: Iterable[str] | None = None,
    recover: bool = True,
    durable: bool = False,
    read_only: bool = False,
) -> Catalog:
    """Load a catalog previously written by :func:`save_catalog`.

    Version-2 manifests additionally seed per-column statistic caches and
    restore index / zone-map sidecars onto an access manager registered on
    the returned catalog; version-1 manifests load exactly as before.

    Version-3 manifests may carry an append log (``mutations``); its delta
    records are replayed in order on top of the base tables.  ``snapshot``
    bounds the replay for time-travel reads: ``snapshot=K`` applies only the
    first K records (``0`` = the base state), ``None`` applies all of them.
    Sidecars written before later records are extended to catch up.

    ``tables`` restricts the load to the named tables — their column files,
    their delta records, their sidecars; nothing else is read.  Single-table
    operations (``repro delete``'s predicate evaluation, ``repro table
    stats``) use this to stay O(table) instead of O(dataset).  The snapshot
    cutoff still indexes the *full* record list, so a filtered load at
    ``snapshot=K`` sees exactly the filtered slice of that history.

    When the dataset carries a WAL (``wal.log``), crash recovery runs first
    (unless ``recover=False``): torn or uncommitted WAL tails are truncated
    and committed-but-unapplied transactions are replayed into the directory,
    so the load always observes exactly the last committed batch.
    ``durable=True`` additionally attaches a WAL-backed
    :class:`~repro.mutation.wal.DurabilityController` to the returned catalog
    (as ``catalog.durability``): every subsequent
    :meth:`~repro.mutation.batch.MutationBatch.commit` is WAL-logged and
    applied to the directory *before* it becomes visible in memory.

    ``read_only=True`` marks the returned catalog read-only:
    ``begin_mutation`` raises and no WAL writer can ever attach.  This is
    the loading mode for shard / distributed worker processes — they serve
    snapshot-pinned reads and must not be able to mutate shared state (it
    also skips crash recovery, which would *write* to the dataset; a
    coordinator owns recovery).  ``read_only`` and ``durable`` are mutually
    exclusive.
    """
    if read_only and durable:
        raise ValueError("read_only and durable are mutually exclusive")
    if read_only:
        recover = False
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise CatalogFormatError(f"no {MANIFEST_NAME} found in {root}")
    from repro.mutation.wal import WAL_NAME, attach_durability, dataset_write_lock

    if recover and (root / WAL_NAME).exists():
        from repro.mutation.recovery import recover_saved_catalog

        with dataset_write_lock(root):
            recover_saved_catalog(root)
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)

    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise CatalogFormatError(
            f"unsupported catalog format version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )

    mutations = manifest.get("mutations", [])
    if snapshot is not None:
        if not 0 <= snapshot <= len(mutations):
            raise CatalogFormatError(
                f"snapshot {snapshot} out of range: the append log has "
                f"{len(mutations)} records"
            )
        mutations = mutations[:snapshot]

    wanted = None if tables is None else set(tables)
    table_entries = manifest.get("tables", [])
    if wanted is not None:
        known = {entry["name"] for entry in table_entries}
        missing = wanted - known
        if missing:
            raise CatalogFormatError(
                f"unknown table(s) {sorted(missing)} in {MANIFEST_NAME}; "
                f"known tables: {', '.join(sorted(known)) or '(none)'}"
            )
        table_entries = [entry for entry in table_entries if entry["name"] in wanted]
        mutations = [record for record in mutations if record["table"] in wanted]
        manifest = dict(manifest)
        manifest["indexes"] = [
            entry for entry in manifest.get("indexes", []) if entry["table"] in wanted
        ]
        manifest["zone_maps"] = [
            entry for entry in manifest.get("zone_maps", []) if entry["table"] in wanted
        ]

    tables_loaded = []
    for table_entry in table_entries:
        name = table_entry["name"]
        directory = table_dir(root, table_entry)
        columns = [
            _load_column(directory, column_entry, ColumnType(column_entry["type"]))
            for column_entry in table_entry["columns"]
        ]
        delete_mask = None
        mask_file = table_entry.get("delete_mask")
        if mask_file:
            mask_path = directory / mask_file
            if not mask_path.exists():
                raise CatalogFormatError(f"missing delete bitmap {mask_path}")
            delete_mask = np.load(mask_path, allow_pickle=False)
        table = Table(name, columns, delete_mask=delete_mask)
        if table.num_rows != table_entry.get("num_rows", table.num_rows):
            raise CatalogFormatError(
                f"table {name!r} has {table.num_rows} rows on disk but the manifest "
                f"records {table_entry['num_rows']}"
            )
        tables_loaded.append(table)
    catalog = Catalog(tables_loaded)
    dirs = {
        entry["name"]: table_dir(root, entry).name
        for entry in table_entries
        if "dir" in entry
    }
    if mutations:
        from repro.mutation.diskops import replay_saved_mutations

        replay_saved_mutations(catalog, mutations, root, dirs=dirs)
    _restore_access_paths(
        catalog, manifest, root, bounded=snapshot is not None, dirs=dirs
    )
    if durable:
        attach_durability(catalog, root)
    if read_only:
        catalog.read_only = True
    return catalog


# --------------------------------------------------------------------------- #
# Index DDL on saved catalogs (the ``repro index`` CLI)
# --------------------------------------------------------------------------- #
def _read_manifest(root: Path) -> dict:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise CatalogFormatError(f"no {MANIFEST_NAME} found in {root}")
    with open(manifest_path, encoding="utf-8") as handle:
        return json.load(handle)


def fsync_file(path: str | Path) -> None:
    """fsync one file's contents (``numpy.save`` and friends do not)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """Best-effort directory fsync: makes renames/creates/unlinks durable
    across power loss, not just process kills.

    Some platforms and filesystems refuse to fsync a directory handle; the
    failure falls back to kill-safe-only durability rather than erroring.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems rejecting dir fsync
        pass
    finally:
        os.close(fd)


def _write_manifest(root: Path, manifest: dict) -> None:
    """Atomically replace the manifest: temp file, fsync, rename, dir fsync.

    Readers and crash recovery therefore only ever observe either the old or
    the new manifest — never a truncated or interleaved one.  This rename is
    the single commit point for every durable state change (mutation apply,
    index DDL, online-compaction swap); the directory fsync makes the rename
    itself power-loss durable, which matters when destructive follow-ups
    (WAL trims, old-generation deletes) depend on the new manifest being the
    one that survives.
    """
    from repro.testing import faults

    tmp_path = root / (MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.flush()
        os.fsync(handle.fileno())
    faults.fire("manifest.before_rename")
    os.replace(tmp_path, root / MANIFEST_NAME)
    fsync_dir(root)


def add_index_to_saved_catalog(root: str | Path, table: str, column: str, kind: str = "auto"):
    """Create a secondary index on a saved dataset; returns its IndexDef.

    Loads the catalog, materializes the index, writes its sidecar file and
    registers it in the manifest (upgrading a version-1 manifest in place —
    the column data is untouched).
    """
    root = Path(root)
    catalog = load_catalog(root)
    from repro.access.manager import ensure_access_manager

    manager = ensure_access_manager(catalog)
    definition = manager.create_index(table, column, kind=kind)
    materialized = manager.index_for(table, column)
    file_name = _index_sidecar_name(column, definition.kind)
    manifest = _read_manifest(root)
    _save_arrays(
        _saved_table_dir(root, manifest, table) / file_name, materialized.to_arrays()
    )
    manifest["format_version"] = FORMAT_VERSION
    entries = manifest.setdefault("indexes", [])
    entries.append(
        {
            "table": table,
            "column": column,
            "kind": definition.kind,
            "file": file_name,
            "rows": catalog.get(table).num_rows,
        }
    )
    _write_manifest(root, manifest)
    return definition


def drop_index_from_saved_catalog(root: str | Path, table: str, column: str) -> dict:
    """Remove a saved index (manifest entry + sidecar); returns its entry."""
    root = Path(root)
    manifest = _read_manifest(root)
    entries = manifest.get("indexes", [])
    matches = [
        entry for entry in entries if entry["table"] == table and entry["column"] == column
    ]
    if not matches:
        raise KeyError(f"no index on {table}.{column} in {root}")
    manifest["indexes"] = [entry for entry in entries if entry not in matches]
    _write_manifest(root, manifest)
    for entry in matches:
        sidecar = _saved_table_dir(root, manifest, entry["table"]) / entry["file"]
        if sidecar.exists():
            sidecar.unlink()
    return matches[0]


def list_saved_indexes(root: str | Path) -> list[dict]:
    """The index registry of a saved dataset (manifest ``indexes`` entries)."""
    return list(_read_manifest(Path(root)).get("indexes", []))


# --------------------------------------------------------------------------- #
# CSV interoperability
# --------------------------------------------------------------------------- #
def export_table_csv(table: Table, path: str | Path) -> None:
    """Write a table as CSV (NULLs become empty cells)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for row in table.rows():
            writer.writerow(
                ["" if row[name] is None else row[name] for name in table.column_names]
            )


def parse_csv_cell(text: str, ctype: ColumnType | None):
    """One CSV cell as a value of ``ctype`` (``ValueError`` when it is not one).

    An empty cell is NULL.  Without a declared type the value is parsed as
    int, then float, then kept as a string.
    """
    if text == "":
        return None
    if ctype is ColumnType.STRING:
        return text
    if ctype is ColumnType.INT:
        return int(text)
    if ctype is ColumnType.FLOAT:
        return float(text)
    if ctype is ColumnType.BOOL:
        return text.lower() in ("1", "true", "t", "yes")
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_csv_rows(
    path: str | Path,
    types: dict[str, ColumnType],
    error: type[ValueError] = CatalogFormatError,
) -> tuple[list[str], list[list]]:
    """The header and the parsed rows of a CSV file with a header row.

    A row shorter than the header is padded with NULLs.  A longer row, or a
    cell that does not parse as its column's type, raises ``error`` naming
    the file, the 1-based line, the column and the expected type.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise error(f"CSV file {path} is empty") from None
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(row) > len(header):
                raise error(f"{where}: {len(row)} cells for {len(header)} columns")
            parsed: list = [None] * len(header)
            for position, (name, text) in enumerate(zip(header, row)):
                ctype = types.get(name)
                try:
                    parsed[position] = parse_csv_cell(text, ctype)
                except ValueError:
                    raise error(
                        f"{where}, column {name!r}: {text!r} is not a valid {ctype.value}"
                    ) from None
            rows.append(parsed)
    return header, rows


def import_table_csv(
    name: str,
    path: str | Path,
    types: dict[str, ColumnType] | None = None,
) -> Table:
    """Read a CSV file (with a header row) into a table.

    Cells are parsed by :func:`read_csv_rows`: empty and missing trailing
    cells become NULL, column types are taken from ``types`` when given and
    inferred otherwise.
    """
    types = types or {}
    header, rows = read_csv_rows(path, types)
    data = {
        column_name: [row[position] for row in rows]
        for position, column_name in enumerate(header)
    }
    return Table.from_dict(name, data, types=types)
