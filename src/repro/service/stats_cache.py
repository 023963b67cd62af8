"""A cache of per-table statistics, selectivity samples and measurements.

Planning needs query-independent, per-table ingredients: summary statistics
(row counts, distinct counts, min/max), the sorted row-position sample
predicates are measured on, and the measured selectivity of each base
predicate on that sample (Section 4.1).  All are deterministic functions of
the table contents, so they are computed once per table version instead of
once per query — without changing any plan or result.  Every
:class:`~repro.engine.session.Session` owns one :class:`StatsCache` as
``session.stats_cache`` (a :class:`~repro.service.service.QueryService`
serves from its session's), and ``PlannerContext.for_query`` plans from a
fresh one when given none, so this is the only way planning gets its
numbers.  A measured selectivity is keyed by the sample it was measured on
and the predicate's key, so a query planned again (its plan evicted, say)
measures none of its predicates; a feedback override never enters the memo,
since the estimate provider only asks it for what it would otherwise
measure.

Entries are keyed by ``(table name, per-table version, ...)`` — see
:meth:`~repro.storage.catalog.Catalog.table_version` — so invalidation is
**per table**: replacing or dropping one table, or committing a mutation to
it, retires only that table's cached statistics, samples and selectivities,
while every other table's entries survive the catalog version bump.  Stale
entries are pruned eagerly.  Entries are memoized only for the table object
the catalog currently holds under that version: a detached table or a
superseded one (a planner that fetched it before a commit) is computed
every time, never stored under the newer table's version.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np

from repro.stats.selectivity import sample_positions as draw_sample_positions
from repro.stats.table_stats import TableStats, collect_table_stats
from repro.storage.catalog import Catalog
from repro.storage.table import Table

from repro.service.plan_cache import CacheStats


class StatsCache:
    """Caches table statistics, sample draws and measured selectivities for
    one catalog.

    All operations are safe to call from multiple threads.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, int], TableStats] = {}
        self._samples: dict[tuple[str, int, int], np.ndarray] = {}
        #: (table, version, sample size, predicate key) -> selectivity
        self._selectivities: dict[tuple[str, int, int, str], float] = {}
        #: Counters of the statistics and samples.
        self.stats = CacheStats()
        #: Counters of the measured selectivities.
        self.selectivity_stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Memoized ingredients
    # ------------------------------------------------------------------ #
    def table_stats(self, table: Table) -> TableStats:
        """Summary statistics for ``table``, computed at most once per version."""
        return self._memoized(
            self._stats, self.stats, table, (), lambda: collect_table_stats(table)
        )

    def sample_positions(self, table: Table, sample_size: int) -> np.ndarray:
        """Sorted sample positions for ``table``, drawn at most once per version."""
        return self._memoized(
            self._samples,
            self.stats,
            table,
            (sample_size,),
            lambda: draw_sample_positions(table.num_rows, sample_size),
        )

    def measured_selectivity(
        self, table: Table, sample_size: int, key: str, measure: Callable[[], float]
    ) -> float:
        """The selectivity of the base predicate ``key`` on ``table``'s
        sample, ``measure()``-d at most once per table version."""
        return self._memoized(
            self._selectivities, self.selectivity_stats, table, (sample_size, key), measure
        )

    def _memoized(self, memo: dict, counters: CacheStats, table: Table, key: tuple, compute):
        """``compute()``'s value for ``table``, memoized under ``key`` and the
        table's version while the catalog holds ``table`` itself."""
        version = self._current_version(table)
        if version < 0:
            return compute()
        memo_key = (table.name, version, *key)
        with self._lock:
            cached = memo.get(memo_key)
            if cached is not None:
                counters.hits += 1
                return cached
            counters.misses += 1
        computed = compute()
        with self._lock:
            # A commit may have superseded the table while it was computed.
            if self._current_version(table) == version:
                self._prune_locked()
                computed = memo.setdefault(memo_key, computed)
                counters.insertions += 1
        return computed

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta) -> bool:
        """Fold a mutation commit's table delta into the cache.

        When the pre-commit version's statistics are cached, the post-commit
        statistics are derived from them via
        :meth:`~repro.stats.table_stats.TableStats.apply_delta` — O(columns)
        instead of a full rescan — and inserted under the new version key.
        Returns True when the incremental path ran; False means nothing was
        cached to extend (the next query recollects lazily).  Samples are
        never carried over: the row population changed, so they are redrawn
        (deterministically) on demand.
        """
        old_key = (delta.table, delta.old_version)
        with self._lock:
            old = self._stats.get(old_key)
            if old is not None:
                self._stats[(delta.table, delta.new_version)] = old.apply_delta(delta)
                self.stats.insertions += 1
            self._prune_locked()
            return old is not None

    def invalidate(self, table: str | None = None) -> None:
        """Drop cached statistics, samples and selectivities — all of them,
        or one table's."""
        with self._lock:
            for memo, stats in self._memos():
                stale = [key for key in memo if table is None or key[0] == table]
                for key in stale:
                    del memo[key]
                stats.invalidations += len(stale)

    def _current_version(self, table: Table) -> int:
        """``table``'s version while the catalog holds this very object
        under its name, else ``-1``."""
        try:
            version = self._catalog.table_version(table.name)
            held = self._catalog.get(table.name)
        except KeyError:
            return -1
        return version if held is table else -1

    def _prune_locked(self) -> None:
        """Discard entries whose table was replaced or dropped (lock held)."""
        def is_stale(key) -> bool:
            name, version = key[0], key[1]
            try:
                return self._catalog.table_version(name) != version
            except KeyError:
                return True

        for memo, stats in self._memos():
            stale = [key for key in memo if is_stale(key)]
            for key in stale:
                del memo[key]
            stats.evictions += len(stale)

    def _memos(self) -> tuple[tuple[dict, CacheStats], ...]:
        """Every memo with the counters it reports into."""
        return (
            (self._stats, self.stats),
            (self._samples, self.stats),
            (self._selectivities, self.selectivity_stats),
        )
