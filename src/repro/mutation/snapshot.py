"""Catalog snapshots: immutable name → table views for isolated reads.

Snapshot isolation in this engine is almost free, because every layer below
it is already immutable: a :class:`~repro.storage.table.Table` never changes
after construction (a mutation commit registers a *new* table object whose
arrays are read-only views grown past the old ones, see
:func:`~repro.storage.column.append_rows`), so pinning a consistent
view of the catalog is just pinning the table objects that were current at
one moment.  :meth:`repro.storage.catalog.Catalog.snapshot` produces such a
pin; :class:`~repro.engine.session.PreparedPlan` stores one, which is what
lets a plan prepared before a commit keep reading its original data while
later queries see the new version.

A snapshot duck-types the small slice of the catalog interface execution
needs (``get`` / ``__contains__`` / ``table_version`` / iteration), so the
physical layer and the morsel driver run against either unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.storage.table import Table


@dataclass(frozen=True)
class CatalogSnapshot:
    """An immutable view of one catalog state.

    Attributes:
        version: the catalog version the snapshot was taken at.
        tables: name -> table objects current at that version.
        table_versions: name -> per-table version at that moment.
    """

    version: int
    tables: dict[str, Table] = field(default_factory=dict)
    table_versions: dict[str, int] = field(default_factory=dict)

    def get(self, name: str) -> Table:
        """Look up a table by name; raises KeyError with a helpful message."""
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"unknown table {name!r} in snapshot v{self.version}; "
                f"known tables: {', '.join(sorted(self.tables)) or '(none)'}"
            ) from None

    def table_version(self, name: str) -> int:
        """Per-table version pinned by the snapshot; KeyError when unknown."""
        if name not in self.table_versions:
            raise KeyError(f"unknown table {name!r}")
        return self.table_versions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables.values())

    def __len__(self) -> int:
        return len(self.tables)

    @property
    def table_names(self) -> list[str]:
        """Table names pinned by the snapshot."""
        return list(self.tables)

    def __repr__(self) -> str:
        return f"CatalogSnapshot(version={self.version}, tables={self.table_names})"
