"""Online compaction: fold the append log into a new table generation.

The pre-v4 ``repro compact`` rewrote base column files *in place* under a
full load — stop-the-world, and worse, not crash-safe: a process killed
between the fold and the append-log truncation left a stale log readable
against the already-folded base.  The :class:`Compactor` replaces that with
a shadow fold:

Each run holds the dataset's compaction lock throughout, so compactions
never overlap (a second one waits, then folds what the first left); only the
write lock below is shared with writers.

1. **Pin** — under the dataset write lock, run crash recovery and note the
   fold point ``K`` (the current length of the manifest's ``mutations``
   list) and the next generation number ``G``.
2. **Fold** — with no locks held (writers keep committing, readers keep
   their pinned :class:`~repro.mutation.snapshot.CatalogSnapshot`\\ s), load
   the ``snapshot=K`` state, physically drop the rows deleted by then, and
   write the folded base files — plus exact statistics and index/zone-map
   sidecars — into fresh ``<table>.g<G>/`` directories.  Rows removed is
   one more delta: the dictionaries and indexes the load brought in are
   *carried through* the live-row map (their ``compacted`` methods), never
   rebuilt from the values, and statistics come from them or from linear
   scans.  Everything read here (base files, the first K segment/delete
   files) is immutable, so concurrent commits cannot race the fold.
3. **Swap** — under the catalog write lock (when attached to a live
   catalog) then the dataset lock, re-read the manifest, *rebase* the
   records that landed after ``K`` onto the new generation (segment
   directories are copied over; delete-position files are rewritten with
   their pre-fold positions mapped through the fold's live-row index), and
   publish everything with one atomic manifest rename.  A crash before the
   rename leaves the old generation fully authoritative; after it, the new
   one.
4. **Trim** — rewrite the WAL keeping only transactions past the applied
   watermark (its header's ``base_txn`` advances, so transaction numbers
   stay absolute), and delete the previous generation's directories.

When constructed with a live catalog, the swap also refreshes the in-memory
tables to the new physical layout (the staged folded columns + post-fold
tail, applied like one more commit) under one version bump and hands the
carried dictionaries, indexes and zone maps to the catalog's access manager
— pinned snapshots keep reading the old immutable tables, the plan cache
invalidates, and in-flight mutation batches that staged against the old row
positions lose the first-committer race and retry.
"""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.access.dictionary import cached_dictionary, carry_dictionaries
from repro.access.zonemap import build_zone_map
from repro.mutation.batch import _mutated_table
from repro.mutation.wal import (
    WAL_NAME,
    applied_txn,
    dataset_compaction_lock,
    dataset_write_lock,
    read_wal,
    rewrite_wal,
)
from repro.obs.history import record_event as record_history_event
from repro.obs.instruments import publish_compaction
from repro.obs.trace import ambient_span
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.disk import (
    FORMAT_VERSION,
    _column_manifest_entry,
    _index_sidecar_name,
    _read_manifest,
    _remove_stale_generation_dirs,
    _save_arrays,
    _write_manifest,
    _zonemap_sidecar_name,
    load_catalog,
    save_table,
)
from repro.storage.table import Table
from repro.testing import faults


@dataclass
class _StagedTable:
    """One table's folded state, staged in its new generation directory."""

    name: str
    dir_name: str
    table: Table  # folded: deleted rows physically dropped, no mask
    live: np.ndarray  # old physical positions that survived, ascending
    old_phys: int  # physical rows (incl. deleted) at the fold point
    reclaimed: int
    column_entries: list[dict] = field(default_factory=list)
    #: Structures carried through ``live``, describing ``table``'s rows.
    indexes: dict[tuple[str, str], object] = field(default_factory=dict)
    zone_maps: dict[str, object] = field(default_factory=dict)

    @property
    def new_rows(self) -> int:
        return self.table.num_rows


def _column_rows(column: Column, rows) -> Column:
    """``column`` restricted to ``rows`` (an index array or a slice)."""
    return Column(
        column.name,
        column.data[rows],
        ctype=column.ctype,
        null_mask=column.null_mask[rows],
        page_size=column.page_size,
    )


class Compactor:
    """Folds a saved dataset's append log without blocking readers/writers.

    ``Compactor(root)`` compacts the directory alone (the CLI path);
    ``Compactor(root, catalog=catalog)`` additionally refreshes the given
    live catalog — the one loaded from ``root`` — to the new physical layout
    at swap time, which is how a long-running service compacts underneath
    its own prepared plans.
    """

    def __init__(self, root: str | Path, catalog: Catalog | None = None) -> None:
        self.root = Path(root)
        self.catalog = catalog

    def run(self) -> dict:
        """Compact; returns a summary dictionary.

        The write lock is held only while pinning the fold point and while
        swapping — writers commit concurrently and their transactions are
        rebased onto the new generation.  The compaction lock is held for
        the whole run: a concurrent compaction waits for it.  Each run
        counts into the metrics registry and, under an ambient tracer, is
        wrapped in a ``compaction`` span.
        """
        with dataset_compaction_lock(self.root), ambient_span("compaction"):
            return self._compact()

    # ------------------------------------------------------------------ #
    def _compact(self) -> dict:
        root = self.root
        from repro.mutation.recovery import recover_saved_catalog

        # Phase 1: pin the fold point.
        with dataset_write_lock(root):
            recover_saved_catalog(root)
            manifest = _read_manifest(root)
            fold_point = len(manifest.get("mutations", []))
            generation = int(manifest.get("generation", 0)) + 1
            old_dirs = {
                entry["name"]: entry.get("dir", entry["name"])
                for entry in manifest.get("tables", [])
            }
            table_order = [entry["name"] for entry in manifest.get("tables", [])]

        # Phase 2: fold into shadow generation directories (no locks).
        folded = load_catalog(root, snapshot=fold_point, recover=False)
        staged: dict[str, _StagedTable] = {
            name: self._stage_table(folded.get(name), generation) for name in table_order
        }
        index_entries, zone_entries = self._stage_access_paths(manifest, folded, staged)
        reclaimed = sum(s.reclaimed for s in staged.values())

        # Phase 3: swap (catalog lock before dataset lock, always).
        outer = (
            self.catalog.write_lock if self.catalog is not None else contextlib.nullcontext()
        )
        with outer:
            with dataset_write_lock(root):
                current = _read_manifest(root)
                if int(current.get("generation", 0)) != generation - 1:
                    # Another compaction swapped first (possible only where
                    # flock is unavailable): its tail is not ours to rebase.
                    raise RuntimeError(
                        f"compaction of {root} superseded: generation "
                        f"{current.get('generation', 0)} is live, not {generation - 1}"
                    )
                tail = current.get("mutations", [])[fold_point:]
                rebased = self._rebase_tail(tail, staged, old_dirs)
                new_manifest = {
                    "format_version": FORMAT_VERSION,
                    "generation": generation,
                    "tables": [
                        {
                            "name": s.name,
                            "dir": s.dir_name,
                            "num_rows": s.new_rows,
                            "columns": s.column_entries,
                        }
                        for s in (staged[name] for name in table_order)
                    ],
                }
                if rebased:
                    new_manifest["mutations"] = rebased
                from repro.mutation.diskops import _next_file_seq

                new_manifest["file_seq"] = _next_file_seq(current)
                if index_entries:
                    new_manifest["indexes"] = index_entries
                if zone_entries:
                    new_manifest["zone_maps"] = zone_entries
                applied = applied_txn(current)
                if applied or (root / WAL_NAME).exists():
                    new_manifest["wal"] = {"applied": applied}
                faults.fire("compact.before_swap")
                _write_manifest(root, new_manifest)

                # The new generation is authoritative from here on.
                faults.fire("compact.before_wal_truncate")
                self._trim_wal(applied)
                if self.catalog is not None:
                    self._refresh_catalog(staged, table_order)
                for name, old_dir in old_dirs.items():
                    if old_dir != staged[name].dir_name:
                        shutil.rmtree(root / old_dir, ignore_errors=True)
                _remove_stale_generation_dirs(root, new_manifest)

        tail_rows = sum(r["rows"] for r in rebased if r["op"] == "append")
        publish_compaction(rows_reclaimed=reclaimed)
        summary = {
            "tables": len(staged),
            "records_folded": fold_point,
            "rows_reclaimed": reclaimed,
            "total_rows": sum(s.new_rows for s in staged.values()) + tail_rows,
            "generation": generation,
            "tail_records": len(rebased),
        }
        record_history_event("compaction", root=str(root), **summary)
        return summary

    # ------------------------------------------------------------------ #
    def _stage_table(self, table: Table, generation: int) -> _StagedTable:
        mask = table.delete_mask
        live = np.arange(table.num_rows) if mask is None else np.flatnonzero(~mask)
        folded_table = Table(
            table.name, [_column_rows(column, live) for column in table.columns()]
        )
        # String dictionaries ride along: the ones in use on the live table
        # (same rows up to the fold point, unless a commit is still landing),
        # else the ones the bitmap-index sidecars brought.  A string column
        # nobody holds one for counts its distinct values by sorting, as a
        # fresh table would.
        source = table
        if self.catalog is not None and table.name in self.catalog:
            live_table = self.catalog.get(table.name)
            if live_table.num_rows >= table.num_rows:
                source = live_table
        carry_dictionaries(source, folded_table, live)
        dir_name = f"{table.name}.g{generation}"
        target = self.root / dir_name
        if target.exists():
            shutil.rmtree(target)  # a crashed earlier staging at this generation
        save_table(folded_table, target)
        return _StagedTable(
            name=table.name,
            dir_name=dir_name,
            table=folded_table,
            live=live,
            old_phys=table.num_rows,
            reclaimed=table.num_deleted,
            column_entries=[
                _column_manifest_entry(column) for column in folded_table.columns()
            ],
        )

    def _stage_access_paths(
        self, manifest: dict, folded: Catalog, staged: dict[str, _StagedTable]
    ) -> tuple[list, list]:
        """Carry index/zone-map sidecars over to the folded contents.

        Positions and page geometry shift when deleted rows fold out: the
        indexes the fold loaded from the old sidecars are renumbered through
        each table's live-row map (``compacted`` — nothing is sorted, the
        result equals a fresh build), zone maps are re-summarized from the
        folded pages.  Sidecars land in the new generation directories; the
        returned entries cover the folded row counts (post-fold segments
        extend them at load time).  The structures stay on the staged tables
        for :meth:`_refresh_catalog`, with the zone maps of every column the
        live catalog prunes on (those have no sidecar).
        """
        def sidecar(s: _StagedTable, file_name: str, structure, **identity) -> dict:
            _save_arrays(self.root / s.dir_name / file_name, structure.to_arrays())
            return {"table": s.name, **identity, "file": file_name, "rows": s.new_rows}

        manager = folded.access_manager
        new_indexes = []
        for entry in manifest.get("indexes", []):
            s = staged.get(entry["table"])
            column, kind = entry["column"], entry["kind"]
            materialized = None
            if s is not None and manager is not None:
                materialized = manager.index_for(s.name, column)
            if materialized is None:
                continue  # the index was dropped under the fold
            if kind == "bitmap":
                materialized = materialized.compacted(
                    s.live, cached_dictionary(s.table, column)
                )
            else:
                materialized = materialized.compacted(s.live)
            s.indexes[(column, kind)] = materialized
            file_name = _index_sidecar_name(column, kind)
            new_indexes.append(sidecar(s, file_name, materialized, column=column, kind=kind))
        new_zones = []
        for entry in manifest.get("zone_maps", []):
            s = staged.get(entry["table"])
            column = entry["column"]
            if s is None or column not in s.table:
                continue
            s.zone_maps[column] = build_zone_map(s.table.column(column))
            file_name = _zonemap_sidecar_name(column)
            new_zones.append(sidecar(s, file_name, s.zone_maps[column], column=column))
        live_manager = None if self.catalog is None else self.catalog.access_manager
        if live_manager is not None:
            for name, zone_map in live_manager.zone_maps_built():
                s = staged.get(name)
                column = zone_map.column_name
                if s is not None and s.reclaimed and column not in s.zone_maps:
                    s.zone_maps[column] = build_zone_map(s.table.column(column))
        return new_indexes, new_zones

    def _rebase_tail(
        self, tail: list[dict], staged: dict[str, _StagedTable], old_dirs: dict[str, str]
    ) -> list[dict]:
        """Carry post-fold-point records onto the new generation.

        Segment directories are copied verbatim (appended rows keep their
        relative positions: new physical layout = folded base + same tail).
        Delete-position files are rewritten: positions at or past the old
        physical base shift by the base-size delta; positions inside the old
        base — necessarily live at the fold point, a delete only ever
        matches live rows — map to their index among the fold's survivors.
        """
        rebased = []
        for record in tail:
            name = record["table"]
            s = staged[name]
            old_dir = self.root / old_dirs[name]
            new_dir = self.root / s.dir_name
            if record["op"] == "append":
                shutil.copytree(
                    old_dir / record["segment"],
                    new_dir / record["segment"],
                    dirs_exist_ok=True,
                )
            elif record["op"] == "delete":
                positions = np.load(
                    old_dir / record["positions"], allow_pickle=False
                ).astype(np.int64)
                pre = positions < s.old_phys
                pre_positions = np.searchsorted(s.live, positions[pre])
                post_positions = s.new_rows + (positions[~pre] - s.old_phys)
                np.save(
                    new_dir / record["positions"],
                    np.concatenate([pre_positions, post_positions]).astype(np.int64),
                )
            rebased.append(dict(record))
        return rebased

    def _trim_wal(self, applied: int) -> None:
        """Drop folded transactions from the WAL (base_txn advances)."""
        state = read_wal(self.root)
        if state is None:
            return
        base = max(applied, state.base_txn)
        keep = [transaction for transaction in state.committed if transaction.txn > base]
        rewrite_wal(self.root, base, keep)
        if self.catalog is not None and self.catalog.durability is not None:
            self.catalog.durability.reset_writer()

    def _refresh_catalog(
        self, staged: dict[str, _StagedTable], table_order: list[str]
    ) -> None:
        """Mirror the new physical layout into the attached live catalog.

        Only tables whose layout actually changed (rows folded out) are
        replaced — for the rest the old and new physical layouts coincide,
        so pinned structures stay valid and no versions churn.  A replaced
        table is its staged fold (columns, cached statistics, dictionaries)
        plus, exactly like one more commit on top of it, the rows appended
        and deleted while the fold ran; the staged indexes and zone maps
        follow through :meth:`~repro.access.manager.AccessPathManager.compact`.
        """
        replacements: dict[str, Table] = {}
        for name in table_order:
            s = staged[name]
            if not s.reclaimed:
                continue
            current = self.catalog.get(name)
            tail = slice(s.old_phys, None)
            segments = {
                column.name: _column_rows(column, tail) for column in current.columns()
            }
            mask = current.delete_mask
            deleted = np.empty(0, dtype=np.int64)
            if mask is not None:
                deleted = np.flatnonzero(np.concatenate([mask[s.live], mask[tail]]))
            replacements[name] = _mutated_table(s.table, segments, deleted)
        if not replacements:
            return
        self.catalog.apply_mutation(replacements)
        manager = self.catalog.access_manager
        if manager is not None:
            for name, table in replacements.items():
                s = staged[name]
                manager.compact(name, table, s.new_rows, s.zone_maps, s.indexes)
