"""Access paths: zone maps, secondary indexes and scan pruning.

This package is the layer between the storage substrate and the planners
that decides *how much of a table a scan has to touch*.  Basilisk's
bitmap-driven evaluation only pays off when scans touch few pages; before
this package existed every query read every page of every referenced
column.  The pieces:

* :mod:`repro.access.zonemap` — per-page min/max/null-count sketches, built
  lazily per column, that let a scan skip whole pages a predicate cannot
  match;
* :mod:`repro.access.dictionary` — dictionary encoding of low-cardinality
  columns (the substrate of the bitmap index);
* :mod:`repro.access.indexes` — secondary indexes: a :class:`BitmapIndex`
  for low-distinct columns and a :class:`SortedIndex` for range predicates,
  both answering with sorted row positions;
* :mod:`repro.access.pruning` — derivation of the per-alias predicate a
  scan may prune on (sound under SQL three-valued logic) and the
  composition rules of candidate sets (sorted unique row positions, with
  zone-map evidence kept page-granular);
* :mod:`repro.access.manager` — the :class:`AccessPathManager` registered
  on a :class:`~repro.storage.catalog.Catalog`, caching sketches and
  indexes per table version;
* :mod:`repro.access.chooser` — the :class:`AccessPathChooser` that costs
  index-scan vs zone-pruned-scan vs full-scan per plan leaf.  Planners
  consume its choices exclusively through
  :class:`~repro.optimizer.estimates.EstimateProvider` — nothing in
  ``repro.core.planner`` imports this package.
"""

from repro.access.chooser import AccessPathChoice, AccessPathChooser, QueryAccessPlan
from repro.access.dictionary import DictionaryEncoding
from repro.access.indexes import BitmapIndex, IndexDef, SortedIndex, build_index
from repro.access.manager import AccessPathManager, ensure_access_manager
from repro.access.pruning import candidate_positions, implied_alias_predicate
from repro.access.zonemap import ColumnZoneMap, build_zone_map

__all__ = [
    "AccessPathChoice",
    "AccessPathChooser",
    "AccessPathManager",
    "BitmapIndex",
    "ColumnZoneMap",
    "DictionaryEncoding",
    "IndexDef",
    "QueryAccessPlan",
    "SortedIndex",
    "build_index",
    "build_zone_map",
    "candidate_positions",
    "ensure_access_manager",
    "implied_alias_predicate",
]
