"""Statistics: table statistics and predicate selectivities.

The paper's cost models (Section 4.1) need cardinality estimates for tagged
relations and relational slices.  Predicate selectivities are *measured* on a
sample of the base data (:mod:`repro.stats.selectivity`); their combination
under the independence assumption and the row formulas built on them
(filtered rows, the PostgreSQL-style join estimate) live in
:class:`repro.optimizer.estimates.EstimateProvider`.
"""

from repro.stats.table_stats import ColumnStats, TableStats, collect_table_stats

__all__ = [
    "ColumnStats",
    "TableStats",
    "collect_table_stats",
]
