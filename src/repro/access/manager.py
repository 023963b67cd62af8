"""The access-path manager: one registry of sketches and indexes per catalog.

An :class:`AccessPathManager` is registered on a
:class:`~repro.storage.catalog.Catalog` (``catalog.access_manager``) and owns
every derived access structure for its tables:

* **zone maps** — built lazily, the first time a scan could prune on a
  column, and cached;
* **secondary indexes** — created explicitly (:meth:`create_index`, or the
  ``repro index`` CLI) as durable :class:`~repro.access.indexes.IndexDef`
  definitions whose materializations are built lazily;
* **candidate sets** — the per-(table, predicate) row supersets scans
  prune with, as sorted unique ``int64`` row positions composed from the
  two structures above, and memoized.

Every cache entry is keyed by the owning table's
:meth:`~repro.storage.catalog.Catalog.table_version`, so replacing or
dropping a table transparently invalidates exactly that table's structures:
index *definitions* survive a replace and re-materialize against the new
contents on next use.  All methods are thread-safe — the query service
resolves access paths from many worker threads at once.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.access.dictionary import adopt_dictionary, table_dictionary
from repro.access.indexes import IndexDef, build_index
from repro.access.pruning import candidate_positions
from repro.access.zonemap import ColumnZoneMap, build_zone_map, extend_zone_map
from repro.expr.ast import BooleanExpr, ColumnRef
from repro.storage.catalog import Catalog

#: Memoized candidate sets kept per table (a set costs eight bytes per
#: candidate row, so diverse ad-hoc workloads would otherwise grow without
#: bound — the plan cache is LRU-bounded for the same reason).  Eviction is
#: insertion-ordered; cached plans simply recompute on a miss.
CANDIDATE_CACHE_SIZE = 128


@dataclass
class AccessStats:
    """Counters describing the manager's work (for reports and tests)."""

    zone_maps_built: int = 0
    indexes_built: int = 0
    zone_maps_extended: int = 0
    indexes_extended: int = 0
    candidate_lookups: int = 0
    candidate_hits: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dictionary."""
        return {
            "zone_maps_built": self.zone_maps_built,
            "indexes_built": self.indexes_built,
            "zone_maps_extended": self.zone_maps_extended,
            "indexes_extended": self.indexes_extended,
            "candidate_lookups": self.candidate_lookups,
            "candidate_hits": self.candidate_hits,
            "invalidations": self.invalidations,
        }


@dataclass
class _TableEntry:
    """Per-(table, version) cache bucket."""

    version: int
    zone_maps: dict[str, ColumnZoneMap | None] = field(default_factory=dict)
    indexes: dict[tuple[str, str], object] = field(default_factory=dict)
    candidates: dict[str, np.ndarray | None] = field(default_factory=dict)


def base_predicate_column(predicate: BooleanExpr) -> str | None:
    """The single column a base predicate constrains, or None.

    Pruning evidence only exists for predicates over exactly one column
    (comparisons against literals, IN/BETWEEN/LIKE/IS NULL); a predicate
    comparing two columns of the same table yields None.
    """
    columns = {
        ref.column
        for ref in _walk_refs(predicate)
    }
    if len(columns) == 1:
        return next(iter(columns))
    return None


def _walk_refs(predicate: BooleanExpr):
    for attribute in ("left", "right", "operand", "low", "high"):
        value = getattr(predicate, attribute, None)
        if isinstance(value, ColumnRef):
            yield value


class AccessPathManager:
    """Registry of zone maps, indexes and candidate sets for one catalog."""

    def __init__(self, catalog: Catalog) -> None:
        # Weak: the catalog owns its manager, and a strong back-reference
        # would make every dropped catalog (compaction builds two per run)
        # cyclic garbage holding its tables until a full collection.
        self._catalog = weakref.ref(catalog)
        self.stats = AccessStats()
        self._lock = threading.RLock()
        self._defs: dict[tuple[str, str], IndexDef] = {}
        self._tables: dict[str, _TableEntry] = {}
        self._version = 0

    @property
    def catalog(self) -> Catalog:
        """The owning catalog (which keeps this manager alive, not vice versa)."""
        return self._catalog()

    @property
    def version(self) -> int:
        """Bumped on every index create/drop; plan fingerprints include it."""
        return self._version

    # ------------------------------------------------------------------ #
    # Index DDL
    # ------------------------------------------------------------------ #
    def create_index(self, table: str, column: str, kind: str = "auto") -> IndexDef:
        """Register (and materialize) an index on ``table.column``.

        ``kind`` is ``"bitmap"``, ``"sorted"`` or ``"auto"`` (pick by
        distinct count).  Raises KeyError for unknown tables/columns and
        ValueError when the column is already indexed.
        """
        table_obj = self.catalog.get(table)
        column_obj = table_obj.column(column)  # raises for unknown columns
        with self._lock:
            if (table, column) in self._defs:
                raise ValueError(f"index on {table}.{column} already exists")
            materialized = build_index(column_obj, kind=kind, table=table_obj)
            definition = IndexDef(table, column, materialized.kind)
            self._defs[(table, column)] = definition
            entry = self._entry_locked(table)
            entry.indexes[(column, definition.kind)] = materialized
            entry.candidates.clear()
            self.stats.indexes_built += 1
            self._version += 1
            return definition

    def drop_index(self, table: str, column: str) -> IndexDef:
        """Remove the index on ``table.column``; raises KeyError when absent."""
        with self._lock:
            definition = self._defs.pop((table, column), None)
            if definition is None:
                raise KeyError(f"no index on {table}.{column}")
            entry = self._tables.get(table)
            if entry is not None:
                entry.indexes.pop((column, definition.kind), None)
                entry.candidates.clear()
            self._version += 1
            return definition

    def list_indexes(self) -> list[IndexDef]:
        """Registered index definitions, sorted by (table, column)."""
        with self._lock:
            return sorted(
                self._defs.values(), key=lambda definition: (definition.table, definition.column)
            )

    def has_index(self, table: str, column: str) -> bool:
        """Whether an index is registered on ``table.column``."""
        with self._lock:
            return (table, column) in self._defs

    def register_loaded_index(self, definition: IndexDef, materialized) -> None:
        """Adopt an index loaded from a sidecar file (see repro.storage.disk).

        A bitmap index brings its column's dictionary along: the table
        shares it from the start instead of encoding the column again.
        """
        with self._lock:
            self._defs[(definition.table, definition.column)] = definition
            entry = self._entry_locked(definition.table)
            entry.indexes[(definition.column, definition.kind)] = materialized
            self._version += 1
        if definition.kind == "bitmap":
            adopt_dictionary(
                self.catalog.get(definition.table), definition.column, materialized.dictionary
            )

    def register_loaded_zone_map(self, table: str, zone_map: ColumnZoneMap) -> None:
        """Adopt a zone map loaded from a sidecar file."""
        with self._lock:
            self._entry_locked(table).zone_maps[zone_map.column_name] = zone_map

    # ------------------------------------------------------------------ #
    # Incremental maintenance (the mutation subsystem's commit hook)
    # ------------------------------------------------------------------ #
    def extend(
        self, table: str, new_table, old_num_rows: int, old_version: int
    ) -> None:
        """Carry ``table``'s structures forward to its new version.

        Called by :meth:`repro.mutation.batch.MutationBatch.commit` right
        after the catalog adopted the mutated table.  Zone maps and
        materialized indexes are *extended* for the appended rows (see
        :func:`repro.access.zonemap.extend_zone_map` and the index
        ``extended`` methods) instead of being dropped and lazily rebuilt;
        delete-only commits carry them over unchanged (deleted rows are
        filtered at candidate resolution and at the scan).  Candidate
        sets are never carried — they fold the delete mask, so the new
        version starts with an empty memo.  Old structures are not mutated:
        snapshots pinned at the previous version keep reading theirs.

        Only structures built for ``old_version`` — the version the batch
        mutated — describe ``old_num_rows`` rows in the right positions and
        may be extended.  A cached entry from any other version is dropped;
        the new version rebuilds lazily.
        """
        with self._lock:
            old_entry = self._tables.get(table)
            if old_entry is None or old_entry.version != old_version:
                old_entry = _TableEntry(version=old_version)
            self._carry_locked(
                table, new_table, old_num_rows, old_entry.zone_maps, old_entry.indexes
            )

    def compact(
        self, table: str, new_table, folded_rows: int, zone_maps: dict, indexes: dict
    ) -> None:
        """Adopt ``table``'s compacted structures for its new version.

        The twin of :meth:`extend` that :class:`~repro.mutation.compact.Compactor`
        calls once the catalog adopted the renumbered table: ``zone_maps``
        (by column) and ``indexes`` (by ``(column, kind)``) were carried
        through the fold's live-row map, describe ``new_table``'s first
        ``folded_rows`` rows and are extended for the rows committed while
        it ran.  Indexes not defined here are ignored; structures the fold
        did not carry rebuild lazily.
        """
        with self._lock:
            defined = {
                key: materialized
                for key, materialized in indexes.items()
                if self._defs.get((table, key[0])) == IndexDef(table, *key)
            }
            self._carry_locked(table, new_table, folded_rows, zone_maps, defined)

    def _carry_locked(
        self, table: str, new_table, covered: int, zone_maps: dict, indexes: dict
    ) -> None:
        """Install structures covering ``new_table``'s first ``covered`` rows."""
        entry = _TableEntry(version=self.catalog.table_version(table))
        appended = new_table.num_rows > covered
        for column_name, zone_map in zone_maps.items():
            if zone_map is not None and appended:
                zone_map = extend_zone_map(zone_map, new_table.column(column_name), covered)
                self.stats.zone_maps_extended += 1
            entry.zone_maps[column_name] = zone_map
        for (column_name, kind), materialized in indexes.items():
            if appended:
                column = new_table.column(column_name)
                if kind == "bitmap":
                    # Shares the table's dictionary, which the commit (or the
                    # compaction) already carried forward (carry_dictionaries).
                    materialized = materialized.extended(
                        column, covered, table_dictionary(new_table, column_name)
                    )
                else:
                    materialized = materialized.extended(column, covered)
                self.stats.indexes_extended += 1
            entry.indexes[(column_name, kind)] = materialized
        self._tables[table] = entry

    # ------------------------------------------------------------------ #
    # Structure access (lazy, version-checked)
    # ------------------------------------------------------------------ #
    def _entry_locked(self, table: str) -> _TableEntry:
        """The cache bucket for ``table`` at its current version (lock held)."""
        current = self.catalog.table_version(table)
        entry = self._tables.get(table)
        if entry is None or entry.version != current:
            if entry is not None:
                self.stats.invalidations += 1
            entry = _TableEntry(version=current)
            self._tables[table] = entry
        return entry

    def zone_map(self, table: str, column: str) -> ColumnZoneMap | None:
        """The zone map of ``table.column`` (built lazily, cached per version)."""
        with self._lock:
            entry = self._entry_locked(table)
            if column not in entry.zone_maps:
                table_obj = self.catalog.get(table)
                if column not in table_obj:
                    entry.zone_maps[column] = None
                else:
                    entry.zone_maps[column] = build_zone_map(table_obj.column(column))
                    self.stats.zone_maps_built += 1
            return entry.zone_maps[column]

    def index_for(self, table: str, column: str):
        """The materialized index on ``table.column`` (None when undefined)."""
        with self._lock:
            definition = self._defs.get((table, column))
            if definition is None:
                return None
            entry = self._entry_locked(table)
            key = (column, definition.kind)
            materialized = entry.indexes.get(key)
            if materialized is None:
                table_obj = self.catalog.get(table)
                materialized = build_index(
                    table_obj.column(column), kind=definition.kind, table=table_obj
                )
                entry.indexes[key] = materialized
                self.stats.indexes_built += 1
            return materialized

    def zone_maps_built(self) -> list[tuple[str, ColumnZoneMap]]:
        """Every (table, zone map) currently materialized (for persistence)."""
        with self._lock:
            return [
                (table, zone_map)
                for table, entry in self._tables.items()
                if table in self.catalog
                and entry.version == self.catalog.table_version(table)
                for zone_map in entry.zone_maps.values()
                if zone_map is not None
            ]

    # ------------------------------------------------------------------ #
    # Candidate resolution
    # ------------------------------------------------------------------ #
    def candidates(self, table: str, predicate: BooleanExpr) -> np.ndarray | None:
        """A sound superset of ``table``'s rows that may satisfy ``predicate``.

        Sorted unique ``int64`` row positions (read-only: they are shared
        through the memo), composed from index lookups (exact) and zone-map
        page masks (page granular) over the predicate tree; ``None`` when no
        pruning evidence exists or the evidence keeps every row.  Results
        are memoized per (table version, predicate key).
        """
        key = predicate.key()
        with self._lock:
            entry = self._entry_locked(table)
            version = entry.version
            self.stats.candidate_lookups += 1
            if key in entry.candidates:
                self.stats.candidate_hits += 1
                return entry.candidates[key]
        positions = self._compute_candidates(table, predicate)
        with self._lock:
            entry = self._entry_locked(table)
            # Cache only if the table was not replaced while computing: a
            # concurrent replace would otherwise pin a candidate set of the
            # old contents (and possibly the wrong range) under the new version.
            if entry.version == version:
                while len(entry.candidates) >= CANDIDATE_CACHE_SIZE:
                    entry.candidates.pop(next(iter(entry.candidates)))
                entry.candidates[key] = positions
            return positions

    def _compute_candidates(self, table: str, predicate: BooleanExpr) -> np.ndarray | None:
        table_obj = self.catalog.get(table)
        num_rows = table_obj.num_rows

        def evidence(base: BooleanExpr):
            column = base_predicate_column(base)
            if column is None or column not in table_obj:
                return None
            index = self.index_for(table, column)
            if index is not None:
                positions = index.lookup(base)
                if positions is not None:
                    return positions
            zone_map = self.zone_map(table, column)
            if zone_map is None:
                return None
            return zone_map.candidate_pages(base, num_rows)

        positions = candidate_positions(predicate, evidence)
        # Fold the table's delete mask in (see repro.mutation): a deleted
        # row is never a candidate, so page pruning and morsel skipping stay
        # sound — and get *stronger* — as rows are deleted.  The scan layer
        # filters deletes independently, so this fold is an optimization for
        # accounting, not the correctness barrier.
        if table_obj.has_deletes():
            deleted = table_obj.delete_mask
            if positions is None:
                positions = np.flatnonzero(~deleted)
            else:
                positions = positions[~deleted[positions]]
        if positions is None or positions.shape[0] == num_rows:
            return None
        # A private copy: a lookup may answer with an index's own array, and
        # the memo hands this one to every scan, so it is made read-only.
        positions = np.array(positions, dtype=np.int64)
        positions.flags.writeable = False
        return positions


_ENSURE_LOCK = threading.Lock()


def ensure_access_manager(catalog: Catalog) -> AccessPathManager:
    """The catalog's access manager, creating and registering one if needed.

    Safe to call from concurrent service workers: exactly one manager is
    ever registered per catalog.
    """
    manager = catalog.access_manager
    if manager is None:
        with _ENSURE_LOCK:
            manager = catalog.access_manager
            if manager is None:
                manager = AccessPathManager(catalog)
                catalog.access_manager = manager
    return manager
