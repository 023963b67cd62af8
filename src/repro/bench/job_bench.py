"""Figures 3a-3d: the JOB-style workload comparisons.

* Figure 3a — BDisj vs. TCombined on the 33 combined disjunctive queries.
* Figure 3b — BPushConj vs. TCombined after factoring the common
  subexpressions out of every query (so the baseline has an AND root to push).
* Figure 3c — BPushConj vs. TMin (the fastest of all tagged planners), which
  bounds what a better cost model could achieve.
* Figure 3d — BPushConj vs. TPushConj on the factored queries: both produce
  the same plans, so the ratio measures the overhead of the tag machinery.
* ``generalization`` — the Section 3.2 ablation: TPushdown with the naive tag
  strategy (no generalization) vs. TPushdown with generalized tags.

Each figure is reported as one row per query group with both runtimes and
the speedup (baseline / tagged), matching the bars of the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.report import arithmetic_mean, format_table
from repro.bench.runner import BenchmarkMeasurement, time_query
from repro.core.factor import factor_common_subexpressions
from repro.engine.session import Session
from repro.plan.query import Query
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

#: Which (baseline, tagged) planner pair each figure compares, whether the
#: query's common subexpressions are factored out first, and whether the
#: baseline runs with naive (ungeneralized) tags.
FIGURE_CONFIG = {
    "3a": {"baseline": "bdisj", "tagged": "tcombined", "factored": False},
    "3b": {"baseline": "bpushconj", "tagged": "tcombined", "factored": True},
    "3c": {"baseline": "bpushconj", "tagged": "tmin", "factored": True},
    "3d": {"baseline": "bpushconj", "tagged": "tpushconj", "factored": True},
    "generalization": {
        "baseline": "tpushdown", "tagged": "tpushdown", "factored": False, "naive_baseline": True,
    },
}


@dataclass
class JobFigureRow:
    """One query group's measurements."""

    group: int
    query_name: str
    baseline: BenchmarkMeasurement
    tagged: BenchmarkMeasurement

    @property
    def speedup(self) -> float:
        """Baseline runtime divided by tagged runtime (>1 = tagged wins)."""
        return self.tagged.speedup_over(self.baseline)

    @property
    def exec_speedup(self) -> float:
        """Speedup on execution time only (excluding planning).

        The paper's server-scale runs make planning negligible (<0.1% of the
        total); at the small dataset scales this Python reproduction uses, the
        planner's constant factors are visible, so both ratios are reported.
        """
        if self.tagged.execution_seconds <= 0:
            return float("inf")
        return self.baseline.execution_seconds / self.tagged.execution_seconds


@dataclass
class JobFigureResult:
    """All rows of one figure plus summary statistics."""

    figure: str
    baseline_planner: str
    tagged_planner: str
    rows: list[JobFigureRow] = field(default_factory=list)

    @property
    def speedups(self) -> list[float]:
        return [row.speedup for row in self.rows]

    @property
    def exec_speedups(self) -> list[float]:
        return [row.exec_speedup for row in self.rows]

    @property
    def average_speedup(self) -> float:
        """Arithmetic mean of per-query total-time speedups."""
        return arithmetic_mean(self.speedups)

    @property
    def average_exec_speedup(self) -> float:
        """Arithmetic mean of per-query execution-only speedups (the paper's
        headline statistic, since its planning times are negligible)."""
        return arithmetic_mean(self.exec_speedups)

    @property
    def max_speedup(self) -> float:
        return max(self.speedups) if self.speedups else 0.0

    @property
    def max_exec_speedup(self) -> float:
        return max(self.exec_speedups) if self.exec_speedups else 0.0

    def to_table(self) -> str:
        """Render the figure as a text table."""
        headers = [
            "group",
            f"{self.baseline_planner} (s)",
            f"{self.tagged_planner} total (s)",
            f"{self.tagged_planner} exec (s)",
            "speedup",
            "exec speedup",
            "rows",
        ]
        rows = [
            [
                row.group,
                row.baseline.total_seconds,
                row.tagged.total_seconds,
                row.tagged.execution_seconds,
                row.speedup,
                row.exec_speedup,
                row.tagged.row_count,
            ]
            for row in self.rows
        ]
        title = (
            f"Figure {self.figure}: {self.baseline_planner}/{self.tagged_planner} speedups "
            f"(avg {self.average_speedup:.2f}x total / {self.average_exec_speedup:.2f}x exec, "
            f"max {self.max_speedup:.2f}x / {self.max_exec_speedup:.2f}x)"
        )
        return format_table(headers, rows, title=title)


def factor_query(query: Query) -> Query:
    """Rewrite a query so common root-clause subexpressions form an AND root."""
    if query.predicate is None:
        return query
    return Query(
        tables=dict(query.tables),
        join_conditions=list(query.join_conditions),
        predicate=factor_common_subexpressions(query.predicate),
        select=list(query.select),
        name=query.name,
    )


def run_job_figure(
    figure: str,
    scale: float = 0.05,
    seed: int = 7,
    repetitions: int = 3,
    groups: list[int] | None = None,
    session: Session | None = None,
) -> JobFigureResult:
    """Run one of Figures 3a-3d (or the ablation) and return per-group measurements.

    Args:
        figure: one of ``"3a"``, ``"3b"``, ``"3c"``, ``"3d"``,
            ``"generalization"``.
        scale: IMDB-like dataset scale factor.
        seed: dataset generation seed.
        repetitions: runs per (query, planner) pair; the average is reported.
        groups: optional subset of group indices (1-based) to run.
        session: reuse an existing session (and its catalog) instead of
            generating a fresh dataset.
    """
    figure = figure.lower().removeprefix("fig")
    if figure not in FIGURE_CONFIG:
        raise ValueError(f"unknown figure {figure!r}; choose one of {sorted(FIGURE_CONFIG)}")
    config = FIGURE_CONFIG[figure]
    naive_baseline = config.get("naive_baseline", False)

    if session is None:
        catalog = generate_imdb_catalog(scale=scale, seed=seed)
        session = Session(catalog, stats_sample_size=10_000)

    queries = job_query_groups()
    selected = groups or list(range(1, len(queries) + 1))

    result = JobFigureResult(
        figure=figure,
        baseline_planner=config["baseline"] + ("-naive" if naive_baseline else ""),
        tagged_planner=config["tagged"],
    )
    for group in selected:
        query = queries[group - 1]
        if config["factored"]:
            query = factor_query(query)
        baseline = time_query(
            session, query, config["baseline"], repetitions, naive_tags=naive_baseline
        )
        tagged = time_query(session, query, config["tagged"], repetitions)
        if baseline.row_count != tagged.row_count:
            raise AssertionError(
                f"result mismatch on {query.name}: {config['baseline']}={baseline.row_count} rows, "
                f"{config['tagged']}={tagged.row_count} rows"
            )
        result.rows.append(
            JobFigureRow(group=group, query_name=query.name, baseline=baseline, tagged=tagged)
        )
    return result
