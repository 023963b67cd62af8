"""Workload history: per-fingerprint query statistics plus the event journal.

The ``pg_stat_statements`` analogue for this engine.  A
:class:`QueryStatsStore` accumulates, per plan-cache fingerprint: calls,
errors, rows, total/min/max latency, a bucketed latency distribution (for
p50/p95/p99), pages read/pruned, plan-cache hits, the current plan hash and
the re-plan count.  A :class:`WorkloadHistory` owns one store and optionally

* an :class:`~repro.obs.journal.EventJournal` — every query finish, re-plan,
  slow query, regression, compaction, recovery and write conflict becomes a
  persistent checksummed record (with a sampled trace attachment on query
  events when ``trace_sample_rate`` is set);
* a :class:`~repro.obs.regress.RegressionDetector` — fingerprints whose
  recent latency / pages-read window degrades beyond their baseline emit a
  structured regression event and bump the registry counter.

**Merge safety.**  Morsel worker threads and shard worker processes never
see this module's state: per-execution counters merge through the engine's
``ExecContext`` fork/absorb, and only the *coordinator* — ``QueryService``'s
publish point, or ``Session.execute`` for bare sessions — records the merged
totals here, exactly once per query.  The service never calls
``Session.execute`` (it runs prepared plans through
``Session.execute_prepared``, which does not publish), so there is one
publish point per query by construction.

The ambient seam (:func:`set_history` / :func:`get_history`) is how
lower layers — the compactor, recovery, conflict retry — journal events
without threading a history object through every signature, mirroring
``ambient_span`` from :mod:`repro.obs.trace`.  With no ambient history
installed every hook is a single ``is None`` test.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .instruments import publish_journal_event, publish_regression, publish_replan
from .journal import EventJournal, read_journal
from .regress import (
    DEFAULT_BASELINE_CALLS,
    DEFAULT_REGRESSION_THRESHOLD,
    DEFAULT_REGRESSION_WINDOW,
    RegressionDetector,
    RegressionEvent,
)
from .registry import DEFAULT_LATENCY_BUCKETS

#: Orderings accepted by :meth:`QueryStatsStore.top`.
TOP_ORDERINGS = ("total_seconds", "calls", "pages_read", "mean_seconds", "rows")


def plan_hash_of(plan_description: str | None) -> str | None:
    """A short stable hash of a plan's pretty-printed form.

    Two fingerprint-identical executions served by *different* plans (the
    fallout of a feedback re-plan) get different hashes — which is what lets
    the regression detector and ``repro history`` attribute a degradation to
    a plan change rather than to noise.
    """
    if not plan_description:
        return None
    return hashlib.blake2s(
        plan_description.encode("utf-8"), digest_size=8
    ).hexdigest()


def session_fingerprint(query, planner: str) -> str:
    """A lightweight history key for bare-``Session`` executions.

    The service layer keys history by its full plan-cache fingerprint
    (catalog/table versions and knobs included); a bare session has none of
    that machinery on its hot path, so its history key hashes the canonical
    query text plus the planner — stable across runs, cheap to compute.
    """
    canonical = query.canonical_key() if hasattr(query, "canonical_key") else str(query)
    return hashlib.blake2s(
        f"{planner}|{canonical}".encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclass
class FingerprintStats:
    """Accumulated execution statistics for one query fingerprint."""

    fingerprint: str
    planner: str
    calls: int = 0
    errors: int = 0
    rows: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0
    pages_read: int = 0
    pages_pruned: int = 0
    cache_hits: int = 0
    plan_hash: str | None = None
    replans: int = 0
    #: Latency histogram: one count per DEFAULT_LATENCY_BUCKETS bound plus
    #: the overflow bucket; drives the percentile estimates.
    bucket_counts: list[int] = field(
        default_factory=lambda: [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1)
    )

    def observe(
        self,
        seconds: float,
        rows: int,
        pages_read: int,
        pages_pruned: int,
        cache_hit: bool,
        plan_hash: str | None,
    ) -> None:
        """Fold one successful execution in."""
        self.calls += 1
        self.rows += rows
        self.total_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)
        self.pages_read += pages_read
        self.pages_pruned += pages_pruned
        if cache_hit:
            self.cache_hits += 1
        if plan_hash is not None:
            self.plan_hash = plan_hash
        index = 0
        for index, bound in enumerate(DEFAULT_LATENCY_BUCKETS):
            if seconds <= bound:
                break
        else:
            index = len(DEFAULT_LATENCY_BUCKETS)
        self.bucket_counts[index] += 1

    @property
    def mean_seconds(self) -> float:
        """Mean end-to-end latency (0.0 before the first call)."""
        return self.total_seconds / self.calls if self.calls else 0.0

    def percentile(self, p: float) -> float:
        """Estimated latency percentile ``p`` (0-100) from the buckets.

        Linear interpolation inside the containing bucket, the standard
        fixed-bucket estimate (what ``histogram_quantile`` computes); the
        overflow bucket reports the observed maximum.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be within [0, 100], got {p}")
        if not self.calls:
            return 0.0
        target = (p / 100.0) * self.calls
        cumulative = 0
        for index, count in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target and count:
                if index >= len(DEFAULT_LATENCY_BUCKETS):
                    return self.max_seconds
                upper = DEFAULT_LATENCY_BUCKETS[index]
                lower = DEFAULT_LATENCY_BUCKETS[index - 1] if index else 0.0
                fraction = (target - previous) / count
                return lower + (upper - lower) * fraction
        return self.max_seconds

    def as_dict(self) -> dict:
        """The statistics as a plain dictionary (reports / JSON)."""
        return {
            "fingerprint": self.fingerprint,
            "planner": self.planner,
            "calls": self.calls,
            "errors": self.errors,
            "rows": self.rows,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": 0.0 if self.calls == 0 else self.min_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": self.percentile(50),
            "p95_seconds": self.percentile(95),
            "p99_seconds": self.percentile(99),
            "pages_read": self.pages_read,
            "pages_pruned": self.pages_pruned,
            "cache_hits": self.cache_hits,
            "plan_hash": self.plan_hash,
            "replans": self.replans,
        }


class QueryStatsStore:
    """A thread-safe map of fingerprint -> :class:`FingerprintStats`."""

    def __init__(self) -> None:
        self._entries: dict[str, FingerprintStats] = {}
        # Re-plans seen before the fingerprint's first published execution.
        # The feedback loop invalidates *inside* execute, ahead of the
        # publish step, so the very first drift retirement would otherwise
        # vanish; buffered counts fold in when the entry appears.
        self._pending_replans: dict[str, int] = {}
        self._lock = threading.Lock()

    def _entry(self, fingerprint: str, planner: str) -> FingerprintStats:
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = FingerprintStats(fingerprint=fingerprint, planner=planner)
            entry.replans = self._pending_replans.pop(fingerprint, 0)
            self._entries[fingerprint] = entry
        return entry

    def observe_query(
        self,
        fingerprint: str,
        planner: str,
        seconds: float,
        rows: int,
        pages_read: int,
        pages_pruned: int,
        cache_hit: bool,
        plan_hash: str | None = None,
    ) -> FingerprintStats:
        """Fold one successful execution into the fingerprint's entry."""
        with self._lock:
            entry = self._entry(fingerprint, planner)
            entry.observe(seconds, rows, pages_read, pages_pruned, cache_hit, plan_hash)
            return entry

    def record_error(self, fingerprint: str, planner: str) -> None:
        """Count one failed execution against the fingerprint."""
        with self._lock:
            self._entry(fingerprint, planner).errors += 1

    def record_replan(self, fingerprint: str) -> None:
        """Count one plan-cache re-plan (drift invalidation) for the key."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                entry.replans += 1
            else:
                self._pending_replans[fingerprint] = (
                    self._pending_replans.get(fingerprint, 0) + 1
                )

    def get(self, fingerprint: str) -> FingerprintStats | None:
        """The entry for ``fingerprint``, or None."""
        with self._lock:
            return self._entries.get(fingerprint)

    def entries(self) -> list[FingerprintStats]:
        """All entries (unordered)."""
        with self._lock:
            return list(self._entries.values())

    def top(self, n: int = 10, by: str = "total_seconds") -> list[FingerprintStats]:
        """The ``n`` heaviest fingerprints ordered by ``by`` (descending)."""
        if by not in TOP_ORDERINGS:
            raise ValueError(f"unknown ordering {by!r}; choose one of {TOP_ORDERINGS}")
        with self._lock:
            ordered = sorted(
                self._entries.values(),
                key=lambda entry: getattr(entry, by),
                reverse=True,
            )
        return ordered[:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class WorkloadHistory:
    """Query statistics + event journal + regression detection, composed.

    Args:
        journal_path: append the event journal at this path (``None``
            keeps history purely in-memory).
        trace_sample_rate: fraction of query events carrying a full trace
            attachment in the journal (requires callers to pass traces in).
        detect_regressions: arm the :class:`RegressionDetector`.
        regression_threshold / baseline_calls / regression_window: detector
            tuning (see :mod:`repro.obs.regress`).
        journal_seed: seed for the trace-sampling decisions (deterministic
            runs in tests).
    """

    def __init__(
        self,
        journal_path: str | Path | None = None,
        trace_sample_rate: float = 0.0,
        detect_regressions: bool = True,
        regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD,
        baseline_calls: int = DEFAULT_BASELINE_CALLS,
        regression_window: int = DEFAULT_REGRESSION_WINDOW,
        journal_seed: int = 0,
    ) -> None:
        self.stats = QueryStatsStore()
        self.journal = (
            EventJournal(journal_path, trace_sample_rate=trace_sample_rate, seed=journal_seed)
            if journal_path is not None
            else None
        )
        self.detector = (
            RegressionDetector(
                threshold=regression_threshold,
                baseline_calls=baseline_calls,
                window=regression_window,
            )
            if detect_regressions
            else None
        )
        self.regressions: list[RegressionEvent] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_query(
        self,
        fingerprint: str,
        planner: str,
        seconds: float,
        execution_seconds: float,
        rows: int,
        pages_read: int,
        pages_pruned: int,
        cache_hit: bool,
        plan_hash: str | None = None,
        trace: dict | None = None,
    ) -> list[RegressionEvent]:
        """Record one finished query; returns newly detected regressions."""
        self.stats.observe_query(
            fingerprint,
            planner,
            seconds,
            rows,
            pages_read,
            pages_pruned,
            cache_hit,
            plan_hash,
        )
        if self.journal is not None:
            event = {
                "fingerprint": fingerprint,
                "planner": planner,
                "seconds": seconds,
                "execution_seconds": execution_seconds,
                "rows": rows,
                "pages_read": pages_read,
                "pages_pruned": pages_pruned,
                "cache_hit": cache_hit,
                "plan_hash": plan_hash,
            }
            if trace is not None and self.journal.sample_trace():
                event["trace"] = trace
            self.journal.append("query", **event)
            publish_journal_event()
        events: list[RegressionEvent] = []
        if self.detector is not None:
            with self._lock:
                events = self.detector.observe(
                    fingerprint,
                    execution_seconds=execution_seconds,
                    pages_read=pages_read,
                    plan_hash=plan_hash,
                )
                self.regressions.extend(events)
            for event in events:
                publish_regression()
                if self.journal is not None:
                    self.journal.append("regression", **event.as_dict())
                    publish_journal_event()
        return events

    def record_error(self, fingerprint: str, planner: str, error: str) -> None:
        """Record one failed execution."""
        self.stats.record_error(fingerprint, planner)
        if self.journal is not None:
            self.journal.append(
                "query_error", fingerprint=fingerprint, planner=planner, error=error
            )
            publish_journal_event()

    def record_replan(self, fingerprint: str, reason: str = "drift") -> None:
        """Record one plan-cache re-plan (the drifted entry was retired)."""
        self.stats.record_replan(fingerprint)
        publish_replan()
        if self.journal is not None:
            self.journal.append("replan", fingerprint=fingerprint, reason=reason)
            publish_journal_event()

    def record_slow_query(self, record) -> None:
        """Route one :class:`~repro.obs.slowlog.SlowQueryRecord` to the journal."""
        if self.journal is not None:
            self.journal.append("slow_query", **record.as_dict())
            publish_journal_event()

    def record_event(self, kind: str, **fields) -> None:
        """Journal one engine event (compaction, recovery, conflict, ...)."""
        if self.journal is not None:
            self.journal.append(kind, **fields)
            publish_journal_event()

    def close(self) -> None:
        """Close the journal (idempotent); statistics stay readable."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "WorkloadHistory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Offline replay
    # ------------------------------------------------------------------ #
    @classmethod
    def replay(
        cls,
        journal_path: str | Path,
        regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD,
        baseline_calls: int = DEFAULT_BASELINE_CALLS,
        regression_window: int = DEFAULT_REGRESSION_WINDOW,
    ) -> "WorkloadHistory":
        """Rebuild a history (stats + detected regressions) from a journal.

        Replays the journal's ``query`` events through a fresh store and
        detector — this is what ``repro history`` runs on a dataset's
        journal file, and it is deterministic: the same journal always
        yields the same statistics and the same regression list.
        """
        history = cls(
            journal_path=None,
            regression_threshold=regression_threshold,
            baseline_calls=baseline_calls,
            regression_window=regression_window,
        )
        for event in read_journal(journal_path):
            kind = event.get("kind")
            if kind == "query":
                history.record_query(
                    fingerprint=str(event.get("fingerprint", "?")),
                    planner=str(event.get("planner", "?")),
                    seconds=float(event.get("seconds", 0.0)),
                    execution_seconds=float(event.get("execution_seconds", 0.0)),
                    rows=int(event.get("rows", 0)),
                    pages_read=int(event.get("pages_read", 0)),
                    pages_pruned=int(event.get("pages_pruned", 0)),
                    cache_hit=bool(event.get("cache_hit", False)),
                    plan_hash=event.get("plan_hash"),
                )
            elif kind == "query_error":
                history.stats.record_error(
                    str(event.get("fingerprint", "?")), str(event.get("planner", "?"))
                )
            elif kind == "replan":
                history.stats.record_replan(str(event.get("fingerprint", "?")))
        return history


# --------------------------------------------------------------------------- #
# The ambient seam
# --------------------------------------------------------------------------- #
#: The process-ambient history, or None.  Installed by the CLI / embedders;
#: read by Session.execute and the mutation subsystem's event hooks.
_AMBIENT: WorkloadHistory | None = None


def set_history(history: WorkloadHistory | None) -> WorkloadHistory | None:
    """Install (or clear, with ``None``) the ambient history; returns the old one."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = history
    return previous


def get_history() -> WorkloadHistory | None:
    """The ambient history, or None."""
    return _AMBIENT


def record_event(kind: str, **fields) -> None:
    """Journal one event on the ambient history (no-op when none installed)."""
    history = _AMBIENT
    if history is not None:
        history.record_event(kind, **fields)
