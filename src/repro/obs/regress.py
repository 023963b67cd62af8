"""Plan-regression detection over per-fingerprint execution history.

A query fingerprint that suddenly gets slower — because cardinality-drift
re-planning picked a worse plan, a compaction changed the physical layout,
or an index was dropped — shows up here before an operator goes digging.
The :class:`RegressionDetector` keeps, per fingerprint and per metric
(execution seconds and pages read), a **baseline** — the median of the first
``baseline_calls`` observations — and a sliding **recent window**; when the
recent median degrades beyond ``threshold`` × baseline it emits one
structured :class:`RegressionEvent`.

Pages read is the metric that makes detection deterministic in tests and CI:
a worse plan reads more pages on every run, while wall-clock latency is
noisy.  Each (fingerprint, metric, plan hash) flags at most once — a
regression is an edge, not a level, and re-planning to yet another plan
re-arms the alarm for the new plan hash.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .history import QueryRecord

#: Degradation factor (recent median / baseline median) that flags.
DEFAULT_REGRESSION_THRESHOLD = 2.0

#: Observations that form a fingerprint's baseline before detection arms.
DEFAULT_BASELINE_CALLS = 8

#: Size of the sliding recent window compared against the baseline.
DEFAULT_REGRESSION_WINDOW = 4


@dataclass(frozen=True)
class RegressionEvent:
    """One detected degradation of a fingerprint on one metric."""

    fingerprint: str
    metric: str
    baseline: float
    recent: float
    ratio: float
    threshold: float
    plan_hash: str | None
    calls: int

    def as_dict(self) -> dict:
        """The event as a plain dictionary (journal / JSON friendly)."""
        return asdict(self)


@dataclass
class _FingerprintWindow:
    """Per-fingerprint detector state: baseline samples + recent windows."""

    baseline: dict[str, list[float]] = field(default_factory=dict)
    recent: dict[str, deque] = field(default_factory=dict)
    flagged: set[tuple[str, str | None]] = field(default_factory=set)
    calls: int = 0


class RegressionDetector:
    """Flags fingerprints whose recent window degrades beyond the baseline.

    Not thread-safe on its own — :class:`~repro.obs.history.WorkloadHistory`
    calls it from the coordinator-side publish point, which is already
    serialized per service.
    """

    METRICS = ("execution_seconds", "pages_read")

    def __init__(
        self,
        threshold: float = DEFAULT_REGRESSION_THRESHOLD,
        baseline_calls: int = DEFAULT_BASELINE_CALLS,
        window: int = DEFAULT_REGRESSION_WINDOW,
    ) -> None:
        if threshold <= 1.0:
            raise ValueError(f"threshold must exceed 1.0, got {threshold}")
        if baseline_calls < 1 or window < 1:
            raise ValueError("baseline_calls and window must be >= 1")
        self.threshold = float(threshold)
        self.baseline_calls = int(baseline_calls)
        self.window = int(window)
        self._state: dict[str, _FingerprintWindow] = {}

    def observe(self, record: QueryRecord) -> list[RegressionEvent]:
        """Fold one execution in; returns newly flagged regressions (if any)."""
        fingerprint, plan_hash = record.fingerprint, record.plan_hash
        state = self._state.setdefault(fingerprint, _FingerprintWindow())
        state.calls += 1
        events: list[RegressionEvent] = []
        samples = {
            "execution_seconds": float(record.execution_seconds),
            "pages_read": float(record.pages_read),
        }
        for metric, value in samples.items():
            baseline = state.baseline.setdefault(metric, [])
            if len(baseline) < self.baseline_calls:
                baseline.append(value)
                continue
            recent = state.recent.setdefault(metric, deque(maxlen=self.window))
            recent.append(value)
            if len(recent) < self.window:
                continue
            baseline_median = statistics.median(baseline)
            if baseline_median <= 0.0:
                continue  # a zero baseline has no meaningful ratio
            recent_median = statistics.median(recent)
            ratio = recent_median / baseline_median
            key = (metric, plan_hash)
            if ratio >= self.threshold and key not in state.flagged:
                state.flagged.add(key)
                events.append(
                    RegressionEvent(
                        fingerprint=fingerprint,
                        metric=metric,
                        baseline=baseline_median,
                        recent=recent_median,
                        ratio=ratio,
                        threshold=self.threshold,
                        plan_hash=plan_hash,
                        calls=state.calls,
                    )
                )
        return events

    def reset(self, fingerprint: str | None = None) -> None:
        """Forget one fingerprint's state (or everything with ``None``)."""
        if fingerprint is None:
            self._state.clear()
        else:
            self._state.pop(fingerprint, None)

    def __len__(self) -> int:
        return len(self._state)
