"""The standard instrument catalog plus publish helpers for each subsystem.

Every metric the engine exports lives here under one naming scheme so the
exposition stays coherent:

    repro_<subsystem>_<what>[_total]     counters (monotonic)
    repro_<subsystem>_<what>             gauges (point-in-time)
    repro_<subsystem>_<what>_seconds     histograms of durations
    repro_<subsystem>_<what>_<unit>      histograms of sizes/counts

Subsystems: ``query`` (service/session), ``plan_cache``, ``feedback``,
``page_cache``, ``scan``, ``exec`` (morsel/shard pools), ``wal``,
``recovery``, ``compaction``.

Call sites go through the ``publish_*`` helpers below; publication is
always on, so its cost sits inside every end-to-end benchmark reading.

Instruments are created eagerly at import so ``repro metrics`` renders the
full catalog (with zeros) even before any traffic — scrapers prefer a stable
set of series over ones that pop into existence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import get_registry

if TYPE_CHECKING:
    from .history import QueryRecord

_REG = get_registry()

# --- query lifecycle (published by Session.execute_prepared / QueryService)
QUERIES = _REG.counter("repro_queries_total", "Queries executed.")
QUERY_SECONDS = _REG.histogram(
    "repro_query_seconds", "End-to-end query latency (plan + execute)."
)
QUERY_ROWS = _REG.counter("repro_query_rows_total", "Rows returned to clients.")
SLOW_QUERIES = _REG.counter(
    "repro_slow_queries_total",
    "Queries slower than the service slow-query-log threshold.",
)

# --- plan cache / feedback (published by QueryService)
PLAN_CACHE_HITS = _REG.counter(
    "repro_plan_cache_hits_total", "Plan cache hits in QueryService."
)
PLAN_CACHE_MISSES = _REG.counter(
    "repro_plan_cache_misses_total", "Plan cache misses in QueryService."
)
PLAN_CACHE_HIT_RATE = _REG.gauge(
    "repro_plan_cache_hit_rate", "Plan cache hit rate since process start."
)
FEEDBACK_OBSERVATIONS = _REG.gauge(
    "repro_feedback_observations",
    "Cardinality observations accumulated by the feedback store.",
)
FEEDBACK_REPLANS = _REG.gauge(
    "repro_feedback_replans", "Plans invalidated by cardinality drift."
)

# --- storage (published by the page cache and per-query IO accounting)
PAGE_CACHE_HITS = _REG.counter(
    "repro_page_cache_hits_total", "Page cache hits."
)
PAGE_CACHE_MISSES = _REG.counter(
    "repro_page_cache_misses_total", "Page cache misses."
)
PAGES_READ = _REG.counter(
    "repro_scan_pages_read_total", "Column pages decoded by scans."
)
PAGES_PRUNED = _REG.counter(
    "repro_scan_pages_pruned_total",
    "Column pages skipped via zone maps / indexes.",
)

# --- execution pools (published by the morsel and shard schedulers)
MORSELS = _REG.counter(
    "repro_exec_morsels_total", "Morsels dispatched to the thread pool."
)
SHARD_TASKS = _REG.counter(
    "repro_exec_shard_tasks_total", "Shard tasks dispatched to worker processes."
)

# --- durability (published by the WAL, recovery, and the compactor)
WAL_COMMITS = _REG.counter("repro_wal_commits_total", "WAL transactions committed.")
WAL_FSYNCS = _REG.counter("repro_wal_fsyncs_total", "WAL fsync calls issued.")
WAL_BYTES = _REG.counter("repro_wal_bytes_total", "Bytes appended to the WAL.")
WAL_COMMIT_OPS = _REG.histogram(
    "repro_wal_commit_ops",
    "Operations per committed WAL transaction (group size).",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)
RECOVERIES = _REG.counter(
    "repro_recovery_runs_total", "WAL replay passes performed at open."
)
RECOVERY_TXNS = _REG.counter(
    "repro_recovery_replayed_txns_total", "Transactions replayed from the WAL."
)
COMPACTIONS = _REG.counter("repro_compaction_runs_total", "Compactions completed.")
COMPACTION_ROWS_RECLAIMED = _REG.counter(
    "repro_compaction_rows_reclaimed_total",
    "Deleted rows physically reclaimed by compaction.",
)

# --- workload history (published by repro.obs.history)
HISTORY_REGRESSIONS = _REG.counter(
    "repro_history_regressions_total",
    "Plan regressions flagged by the workload-history detector.",
)
HISTORY_REPLANS = _REG.counter(
    "repro_history_replans_total",
    "Plan-cache entries retired for re-planning, as seen by history.",
)
HISTORY_JOURNAL_EVENTS = _REG.counter(
    "repro_history_journal_events_total",
    "Events appended to the workload-history event journal.",
)


def publish_query(record: QueryRecord) -> None:
    """Record one finished query execution."""
    QUERIES.inc()
    QUERY_SECONDS.observe(record.seconds)
    QUERY_ROWS.inc(record.rows)
    if record.pages_read:
        PAGES_READ.inc(record.pages_read)
    if record.pages_pruned:
        PAGES_PRUNED.inc(record.pages_pruned)
    if record.morsels:
        MORSELS.inc(record.morsels)
    if record.shard_tasks:
        SHARD_TASKS.inc(record.shard_tasks)


def publish_plan_cache(hit: bool) -> None:
    """Record one plan-cache lookup and refresh the hit-rate gauge."""
    if hit:
        PLAN_CACHE_HITS.inc()
    else:
        PLAN_CACHE_MISSES.inc()
    total = PLAN_CACHE_HITS.value + PLAN_CACHE_MISSES.value
    if total:
        PLAN_CACHE_HIT_RATE.set(PLAN_CACHE_HITS.value / total)


def publish_feedback(observations: int, replans: int) -> None:
    """Refresh the feedback-store gauges."""
    FEEDBACK_OBSERVATIONS.set(observations)
    FEEDBACK_REPLANS.set(replans)


def publish_page_cache(hits: int, misses: int) -> None:
    """Record a batch of page-cache accesses."""
    if hits:
        PAGE_CACHE_HITS.inc(hits)
    if misses:
        PAGE_CACHE_MISSES.inc(misses)


def publish_slow_query() -> None:
    """Count one query over the slow-query threshold."""
    SLOW_QUERIES.inc()


def publish_wal_commit(ops: int, bytes_written: int, fsyncs: int) -> None:
    """Record one committed WAL transaction."""
    WAL_COMMITS.inc()
    WAL_COMMIT_OPS.observe(ops)
    if bytes_written:
        WAL_BYTES.inc(bytes_written)
    if fsyncs:
        WAL_FSYNCS.inc(fsyncs)


def publish_recovery(replayed_txns: int) -> None:
    """Record one WAL replay pass."""
    RECOVERIES.inc()
    if replayed_txns:
        RECOVERY_TXNS.inc(replayed_txns)


def publish_compaction(rows_reclaimed: int) -> None:
    """Record one completed compaction."""
    COMPACTIONS.inc()
    if rows_reclaimed:
        COMPACTION_ROWS_RECLAIMED.inc(rows_reclaimed)


def publish_regression() -> None:
    """Count one plan regression flagged by the history detector."""
    HISTORY_REGRESSIONS.inc()


def publish_replan() -> None:
    """Count one drift re-plan recorded by the workload history."""
    HISTORY_REPLANS.inc()


def publish_journal_event() -> None:
    """Count one event appended to the history journal."""
    HISTORY_JOURNAL_EVENTS.inc()


def publish_wal_status(registry, status: dict, prefix: str = "repro_wal") -> None:
    """Publish a ``wal_status()`` dictionary as gauges on ``registry``.

    Used by ``repro metrics`` (global registry) and by
    ``repro wal status --format json`` (a private registry whose
    ``snapshot()`` becomes the JSON document), so both speak the same
    serialization.
    """
    for key, value in status.items():
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            continue
        registry.gauge(f"{prefix}_{key}", f"WAL status field {key!r}.").set(value)
