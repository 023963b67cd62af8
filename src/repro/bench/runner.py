"""Timing helpers shared by the figure benchmarks."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.planner.combined import TCombinedPlanner
from repro.engine.result import QueryResult
from repro.engine.session import Session
from repro.plan.query import Query

#: The planners the paper's TMin oracle minimizes over (Figure 3c): the
#: candidate planners TCombined itself considers, read from it so the two
#: cannot drift apart.  TExhaustive is an extension beyond the paper and is
#: not a candidate, so TMin keeps its meaning.
TMIN_CANDIDATES = tuple(planner.name for planner in TCombinedPlanner.CANDIDATES)


@dataclass
class BenchmarkMeasurement:
    """Averaged timings of one (query, planner) pair."""

    planner: str
    query_name: str
    repetitions: int
    total_seconds: float
    execution_seconds: float
    planning_seconds: float
    row_count: int
    metrics: dict[str, int] = field(default_factory=dict)

    def speedup_over(self, other: "BenchmarkMeasurement") -> float:
        """How much faster this measurement is than ``other`` (>1 = faster)."""
        if self.total_seconds <= 0:
            return float("inf")
        return other.total_seconds / self.total_seconds


def time_query(
    session: Session,
    query: Query,
    planner: str,
    repetitions: int = 3,
    naive_tags: bool = False,
) -> BenchmarkMeasurement:
    """Execute ``query`` under ``planner`` ``repetitions`` times and average.

    The paper reports the average of 5 runs per query; benchmarks here
    default to 3 to keep wall-clock time reasonable for a Python engine.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    total = 0.0
    execution = 0.0
    planning = 0.0
    last: QueryResult | None = None
    for _ in range(repetitions):
        result = session.execute(query, planner=planner, naive_tags=naive_tags)
        total += result.total_seconds
        execution += result.execution_seconds
        planning += result.planning_seconds
        last = result
    assert last is not None
    return BenchmarkMeasurement(
        planner=planner,
        query_name=query.name or "query",
        repetitions=repetitions,
        total_seconds=total / repetitions,
        execution_seconds=execution / repetitions,
        planning_seconds=planning / repetitions,
        row_count=last.row_count,
        metrics=last.metrics.as_dict(),
    )


def time_fastest(
    session: Session,
    query: Query,
    planners: tuple[str, ...] = TMIN_CANDIDATES,
    repetitions: int = 3,
) -> BenchmarkMeasurement:
    """The TMin oracle: time each planner and keep the fastest mean.

    Each candidate is measured with :func:`time_query`; the one with the
    lowest mean total time is returned, labelled ``"tmin"``.  Candidates
    that disagree on the row count raise ``AssertionError``.
    """
    measurements = [time_query(session, query, planner, repetitions) for planner in planners]
    row_counts = {m.planner: m.row_count for m in measurements}
    if len(set(row_counts.values())) > 1:
        raise AssertionError(f"tmin candidates disagree on {query.name}: {row_counts}")
    fastest = min(measurements, key=lambda m: m.total_seconds)
    return dataclasses.replace(fastest, planner="tmin")
