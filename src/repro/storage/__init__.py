"""Column-oriented storage substrate.

This package is the Python analogue of Basilisk's storage engine.  Data is
stored column by column, reads are accounted at page granularity through a
simulated paged-I/O layer with an LFU cache, and row subsets are described by
sorted row positions rather than by copying tuples around.

Public entry points:

* :class:`~repro.storage.column.Column` — a single typed column.
* :class:`~repro.storage.table.Table` — a named collection of columns.
* :class:`~repro.storage.table.TablePartition` — a horizontal row-range slice.
* :class:`~repro.storage.catalog.Catalog` — the set of tables known to an engine.
* :class:`~repro.storage.pagecache.LFUPageCache` — the simulated page cache.
* :class:`~repro.storage.iostats.IOStats` — read-accounting counters.
"""

from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache
from repro.storage.table import Table, TablePartition

__all__ = [
    "Catalog",
    "Column",
    "ColumnType",
    "IOStats",
    "LFUPageCache",
    "Table",
    "TablePartition",
]
