"""Observability: tracing, metrics, slow-query log, and workload history.

Cooperating pieces, all opt-in on the execution hot path:

* :mod:`repro.obs.trace` — a hierarchical :class:`~repro.obs.trace.Tracer`
  riding on ``ExecContext`` (span tree per query, per-operator timing,
  merged across morsel threads and shard processes, exported as JSON or
  Chrome trace events);
* :mod:`repro.obs.registry` — a process-wide
  :class:`~repro.obs.registry.MetricsRegistry` of counters / gauges /
  histograms with Prometheus text exposition, fed by the standard
  instrument catalog in :mod:`repro.obs.instruments`;
* :mod:`repro.obs.slowlog` — a structured
  :class:`~repro.obs.slowlog.SlowQueryLog` armed by
  ``QueryService(slow_query_log=...)``, with a size-rotated
  :class:`~repro.obs.slowlog.RotatingFileSink`;
* :mod:`repro.obs.history` — the finished-query
  :class:`~repro.obs.history.QueryRecord` that the registry, the slow log,
  the stats store, the journal and the regression detector all read, and
  the longitudinal layer: a per-fingerprint
  :class:`~repro.obs.history.QueryStatsStore`, the persistent checksummed
  :class:`~repro.obs.journal.EventJournal`, and the
  :class:`~repro.obs.regress.RegressionDetector`, composed by
  :class:`~repro.obs.history.WorkloadHistory` (CLI: ``repro history``,
  ``repro top``).
"""

from .history import (
    FingerprintStats,
    QueryRecord,
    QueryStatsStore,
    WorkloadHistory,
    get_history,
    set_history,
)
from .journal import EventJournal, JournalScan, read_journal, scan_journal
from .regress import RegressionDetector, RegressionEvent
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .slowlog import RotatingFileSink, SlowQueryLog
from .trace import Span, Tracer, ambient_span, current_tracer

__all__ = [
    "Counter",
    "EventJournal",
    "FingerprintStats",
    "Gauge",
    "Histogram",
    "JournalScan",
    "MetricsRegistry",
    "QueryRecord",
    "QueryStatsStore",
    "RegressionDetector",
    "RegressionEvent",
    "RotatingFileSink",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "WorkloadHistory",
    "ambient_span",
    "current_tracer",
    "get_history",
    "get_registry",
    "read_journal",
    "scan_journal",
    "set_history",
]
