"""Statistics: table statistics and predicate selectivities.

The paper's cost models (Section 4.1) need cardinality estimates for tagged
relations and relational slices.  Predicate selectivities are *measured* on a
sample of the base data and combined under the independence assumption; the
row formulas built on them (filtered rows, the PostgreSQL-style join
estimate) live in :class:`repro.optimizer.estimates.EstimateProvider`.
"""

from repro.stats.selectivity import SelectivityEstimator
from repro.stats.table_stats import ColumnStats, TableStats, collect_table_stats

__all__ = [
    "ColumnStats",
    "SelectivityEstimator",
    "TableStats",
    "collect_table_stats",
]
