"""Mutation batches: the engine's append/delete write path.

A :class:`MutationBatch` (from
:meth:`repro.storage.catalog.Catalog.begin_mutation`) stages any number of
row appends and row deletes across any tables, then applies them atomically
with :meth:`MutationBatch.commit`:

* each mutated table is rebuilt **copy-on-write** — appended columns are new
  arrays (old data shared until the concatenation), deletes extend a
  per-table delete bitmap on a new :class:`~repro.storage.table.Table`
  object sharing the unchanged columns — so catalog snapshots pinned by
  in-flight :class:`~repro.engine.session.PreparedPlan` objects keep reading
  exactly the data they were planned against;
* the catalog version is bumped **exactly once per batch**
  (:meth:`~repro.storage.catalog.Catalog.apply_mutation`), and every mutated
  table adopts that version;
* derived state is maintained **incrementally**: new columns are seeded with
  merged min/max/distinct statistics, the catalog's
  :class:`~repro.access.manager.AccessPathManager` (when present) extends
  its zone maps and secondary indexes for the appended pages instead of
  rebuilding them, and catalog subscribers (the service layer) receive the
  :class:`~repro.mutation.delta.MutationCommit` to update their caches.

Deletes are *logical*: the physical row range never shrinks, scans simply
stop emitting the deleted positions (``repro compact`` reclaims the space).
Appends always land after the pre-commit rows, so the visible row order of a
mutated table equals the row order of a freshly built table holding the same
live rows — the property the mutation differential suite checks.

Batches may overlap: each batch records the version of every table it
touches at first staging, and :meth:`MutationBatch.commit` re-checks those
versions under the catalog write lock — **first committer wins**, the loser
raises :class:`ConflictError` with nothing applied (retry with
:func:`repro.mutation.concurrency.retry_on_conflict`).  When the catalog is
durable (``load_catalog(root, durable=True)``), the winner's batch is
WAL-logged and applied to the saved dataset *before* the in-memory swap, so
a crash at any instant recovers to the last committed batch.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.access.dictionary import cached_dictionary, carry_dictionaries
from repro.mutation.delta import ColumnDelta, MutationCommit, TableDelta, column_delta_for_segment
from repro.storage.column import Column, capped_by_span
from repro.storage.table import Table


class MutationError(ValueError):
    """Raised for invalid staging or commit requests."""


class ConflictError(MutationError):
    """Raised when a batch loses the first-committer-wins race.

    Some table this batch staged against was replaced (by another committed
    batch, or by an online compaction) after this batch first touched it.
    Nothing was applied; re-stage against the current state and retry —
    :func:`repro.mutation.concurrency.retry_on_conflict` automates this with
    exponential backoff.
    """

    def __init__(self, tables: list[str]) -> None:
        super().__init__(
            f"concurrent commit won on table(s) {sorted(tables)}; "
            "re-stage against the current catalog state and retry"
        )
        self.tables = sorted(tables)


class MutationBatch:
    """Staged appends and deletes against one catalog, applied atomically."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self._appends: dict[str, list[Mapping[str, object]]] = {}
        self._deletes: dict[str, set[int]] = {}
        self._committed: MutationCommit | None = None
        #: Table version observed at first staging touch — the
        #: first-committer-wins conflict check re-reads it at commit.
        self._read_versions: dict[str, int] = {}

    def _touch(self, table: str) -> None:
        if table not in self._read_versions:
            self._read_versions[table] = self.catalog.table_version(table)

    # ------------------------------------------------------------------ #
    # Staging
    # ------------------------------------------------------------------ #
    def insert(self, table: str, rows: Sequence[Mapping[str, object]]) -> "MutationBatch":
        """Stage ``rows`` (dicts of column -> value) for appending to ``table``.

        Missing columns become NULL; unknown columns raise.  Returns the
        batch for chaining.
        """
        self._check_open()
        table_obj = self.catalog.get(table)
        self._touch(table)
        known = set(table_obj.column_names)
        for row in rows:
            unknown = set(row) - known
            if unknown:
                raise MutationError(
                    f"row for table {table!r} names unknown columns: {sorted(unknown)}"
                )
        self._appends.setdefault(table, []).extend(dict(row) for row in rows)
        return self

    def delete(
        self,
        table: str,
        positions: Sequence[int] | np.ndarray | None = None,
        where=None,
    ) -> int:
        """Stage deletes for ``table``; returns how many rows were staged.

        Exactly one of ``positions`` (explicit physical row positions) or
        ``where`` (a predicate — a :class:`~repro.expr.ast.BooleanExpr` or a
        SQL expression string — evaluated against the table's current live
        rows) must be given.  Already-deleted rows and rows staged for append
        in this batch cannot be deleted; duplicate positions collapse.
        """
        self._check_open()
        table_obj = self.catalog.get(table)
        self._touch(table)
        if (positions is None) == (where is None):
            raise MutationError("delete() needs exactly one of positions= or where=")
        if where is not None:
            resolved = _matching_live_positions(table_obj, where)
        else:
            resolved = np.asarray(list(positions), dtype=np.int64)
            if resolved.size:
                if resolved.min() < 0 or resolved.max() >= table_obj.num_rows:
                    raise MutationError(
                        f"delete position out of range for table {table!r} "
                        f"with {table_obj.num_rows} physical rows"
                    )
                mask = table_obj.delete_mask
                if mask is not None and bool(mask[resolved].any()):
                    raise MutationError(
                        f"delete targets already-deleted rows of table {table!r}"
                    )
        staged = self._deletes.setdefault(table, set())
        before = len(staged)
        staged.update(int(position) for position in resolved)
        return len(staged) - before

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    def commit(self) -> MutationCommit:
        """Apply every staged change under one catalog version bump.

        Runs entirely under the catalog write lock: the per-table versions
        recorded at staging are re-checked first — if any touched table was
        replaced since, the batch loses the first-committer-wins race and
        raises :class:`ConflictError` with nothing applied.  On a durable
        catalog the winning batch is then WAL-logged and written to the
        saved dataset *before* the in-memory swap (write-ahead: a crash
        after the WAL fsync recovers the batch, a crash before it rolls the
        batch back).

        Returns the :class:`MutationCommit` (empty — and without a version
        bump — when nothing was staged).  The batch cannot be reused.
        """
        self._check_open()
        names = sorted(set(self._appends) | set(self._deletes))
        if not names:
            self._committed = MutationCommit(version=self.catalog.version)
            return self._committed

        with self.catalog.write_lock:
            conflicted = []
            for name in names:
                try:
                    current = self.catalog.table_version(name)
                except KeyError:
                    conflicted.append(name)  # table dropped underneath us
                    continue
                if current != self._read_versions.get(name, current):
                    conflicted.append(name)
            if conflicted:
                raise ConflictError(conflicted)

            old_tables = {name: self.catalog.get(name) for name in names}
            old_versions = {name: self.catalog.table_version(name) for name in names}
            new_tables: dict[str, Table] = {}
            segments: dict[str, dict[str, Column | None]] = {}
            deleted: dict[str, np.ndarray] = {}
            for name in names:
                old = old_tables[name]
                rows = self._appends.get(name, [])
                positions = np.array(sorted(self._deletes.get(name, ())), dtype=np.int64)
                deleted[name] = positions
                segments[name] = _build_segments(old, rows)
                new_tables[name] = _mutated_table(old, segments[name], positions)

            durability = getattr(self.catalog, "durability", None)
            if durability is not None:
                durability.commit_ops(self._durable_ops(names, deleted))

            try:
                new_version = self.catalog.apply_mutation(new_tables)
            except BaseException:
                # The batch is durably committed on disk but never landed in
                # memory: poison the controller so further commits fail loudly
                # instead of silently diverging from the next load_catalog
                # (whose WAL replay will include this transaction).
                if durability is not None:
                    durability.poison(
                        "the in-memory apply failed after its WAL commit"
                    )
                raise

            deltas: dict[str, TableDelta] = {}
            for name in names:
                old = old_tables[name]
                columns: dict[str, ColumnDelta] = {
                    column.name: column_delta_for_segment(
                        column.name,
                        segments[name][column.name],
                        column,
                        deleted[name],
                        cached_dictionary(new_tables[name], column.name),
                    )
                    for column in old.columns()
                }
                deltas[name] = TableDelta(
                    table=name,
                    old_version=old_versions[name],
                    new_version=new_version,
                    old_num_rows=old.num_rows,
                    appended_rows=len(self._appends.get(name, [])),
                    deleted_positions=deleted[name],
                    columns=columns,
                )

            manager = self.catalog.access_manager
            if manager is not None:
                for name in names:
                    delta = deltas[name]
                    manager.extend(
                        name, new_tables[name], delta.old_num_rows, delta.old_version
                    )

            commit = MutationCommit(version=new_version, deltas=deltas)
            self._committed = commit
        self.catalog.notify_mutation(commit)
        return commit

    def _durable_ops(self, names: list[str], deleted: Mapping[str, np.ndarray]) -> list[dict]:
        """This batch as WAL op payloads (deletes before appends per table —
        staged delete positions address the pre-append physical layout)."""
        ops: list[dict] = []
        for name in names:
            positions = deleted[name]
            if positions.size:
                ops.append(
                    {
                        "table": name,
                        "op": "delete",
                        "positions": [int(p) for p in positions],
                    }
                )
            rows = self._appends.get(name, [])
            if rows:
                ops.append(
                    {"table": name, "op": "append", "rows": [dict(r) for r in rows]}
                )
        return ops

    def abort(self) -> None:
        """Discard every staged change; the batch cannot be reused."""
        self._check_open()
        self._appends.clear()
        self._deletes.clear()
        self._committed = MutationCommit(version=self.catalog.version)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._committed is not None:
            raise MutationError("mutation batch already committed or aborted")

    def __repr__(self) -> str:
        staged = sorted(set(self._appends) | set(self._deletes))
        return f"MutationBatch(tables={staged}, committed={self._committed is not None})"


# --------------------------------------------------------------------------- #
# Table rebuilding
# --------------------------------------------------------------------------- #
def _build_segments(
    old: Table, rows: Sequence[Mapping[str, object]]
) -> dict[str, Column | None]:
    """The appended values of every column as small segment columns."""
    if not rows:
        return {name: None for name in old.column_names}
    segments: dict[str, Column | None] = {}
    for column in old.columns():
        values = [row.get(column.name) for row in rows]
        segments[column.name] = Column(
            column.name, values, ctype=column.ctype, page_size=column.page_size
        )
    return segments


def extend_column(old: Column, segment: Column) -> Column:
    """``old`` with ``segment`` appended, statistics seeded by merging.

    The shared column-extension primitive of in-memory commits and the disk
    append-log replay (:mod:`repro.mutation.diskops`).
    """
    data = np.concatenate([old.data, segment.data])
    nulls = np.concatenate([old.null_mask, segment.null_mask])
    extended = Column(
        old.name, data, ctype=old.ctype, null_mask=nulls, page_size=old.page_size
    )
    distinct, bounds, bounds_known = old.cached_statistics()
    merged = _merge_bounds(bounds, segment.min_max()) if bounds_known else None
    if distinct is not None:
        # Upper-bound estimate: segment values may repeat existing ones
        # (carry_dictionaries replaces it with the exact count when it can).
        estimate = min(distinct + segment.distinct_count(), len(extended))
        extended.seed_statistics(distinct_count=capped_by_span(estimate, merged))
    if bounds_known:
        extended.seed_statistics(min_max=merged, min_max_known=True)
    return extended


def _merge_bounds(old: tuple | None, new: tuple | None) -> tuple | None:
    if old is None:
        return new
    if new is None:
        return old
    return (min(old[0], new[0]), max(old[1], new[1]))


def _mutated_table(
    old: Table, segments: Mapping[str, Column | None], deleted: np.ndarray
) -> Table:
    """The post-commit table: appended columns + extended delete mask."""
    appended = next(iter(segments.values()), None)
    appended_rows = len(appended) if appended is not None else 0
    if appended_rows:
        columns = [
            extend_column(column, segments[column.name]) for column in old.columns()
        ]
    else:
        columns = old.columns()
    mask = old.delete_mask
    if mask is None and deleted.size == 0:
        new_mask = None
    else:
        new_mask = np.zeros(old.num_rows + appended_rows, dtype=np.bool_)
        if mask is not None:
            new_mask[: old.num_rows] = mask
        if deleted.size:
            if bool(new_mask[deleted].any()):
                raise MutationError(
                    f"delete targets already-deleted rows of table {old.name!r}"
                )
            new_mask[deleted] = True
    mutated = Table(old.name, columns, delete_mask=new_mask)
    carry_dictionaries(old, mutated)
    return mutated


def _matching_live_positions(table: Table, where) -> np.ndarray:
    """Live positions of ``table`` where the predicate is TRUE."""
    predicate = _parse_predicate(where)
    aliases = predicate.tables()
    if aliases - {table.name}:
        raise MutationError(
            f"delete predicate may only reference table {table.name!r}; "
            f"got aliases {sorted(aliases)}"
        )
    positions = np.arange(table.num_rows, dtype=np.int64)
    positions = table.live_positions_in(positions)
    if positions.size == 0:
        return positions
    from repro.engine.metrics import ExecContext
    from repro.expr.three_valued import is_true
    from repro.physical.expressions import evaluate_predicate

    truth = evaluate_predicate(
        predicate,
        {table.name: table},
        {table.name: positions},
        ExecContext(),
        description="delete",
    )
    return positions[is_true(truth)]


def _parse_predicate(where):
    """Accept a BooleanExpr or a SQL expression string."""
    if isinstance(where, str):
        from repro.sql.parser import parse_expression

        return parse_expression(where)
    return where
