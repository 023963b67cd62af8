"""Figures 4a-4d: the synthetic parameter sweeps.

* Figure 4a — DNF query, predicate selectivity swept 0.1 .. 0.9
  (BDisj vs. TCombined).
* Figure 4b — CNF query, table size swept 1k .. 50k
  (BPushConj vs. TCombined).
* Figure 4c — DNF query, number of root clauses swept 2 .. 7; TCombined is
  reported both as total time and as execution-only time, since planning
  time becomes visible here (BDisj vs. TCombined).
* Figure 4d — CNF query, outer conjunctive factor swept 0.1 .. 1.0
  (BPushConj vs. TCombined).

Each sweep returns one row per parameter value with the averaged runtimes,
mirroring the line plots of the paper's Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.report import format_table
from repro.bench.runner import BenchmarkMeasurement, time_query
from repro.engine.session import Session
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_catalog,
    make_cnf_query,
    make_dnf_query,
)

#: Default sweep values; benchmarks may override with smaller grids.
DEFAULT_SELECTIVITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_TABLE_SIZES = (1_000, 5_000, 10_000, 25_000, 50_000)
DEFAULT_ROOT_CLAUSES = (2, 3, 4, 5, 6, 7)
DEFAULT_OUTER_FACTORS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class SyntheticSweepRow:
    """Measurements for one parameter value."""

    parameter: float
    baseline: BenchmarkMeasurement
    tagged: BenchmarkMeasurement

    @property
    def speedup(self) -> float:
        """Baseline runtime divided by tagged runtime (>1 = tagged wins)."""
        return self.tagged.speedup_over(self.baseline)


@dataclass
class SyntheticSweepResult:
    """A full sweep for one figure."""

    figure: str
    parameter_name: str
    baseline_planner: str
    tagged_planner: str
    rows: list[SyntheticSweepRow] = field(default_factory=list)

    def to_table(self) -> str:
        """Render the sweep as a text table."""
        headers = [
            self.parameter_name,
            f"{self.baseline_planner} (s)",
            f"{self.tagged_planner} total (s)",
            f"{self.tagged_planner} exec (s)",
            "speedup",
            "rows",
        ]
        rows = [
            [
                row.parameter,
                row.baseline.total_seconds,
                row.tagged.total_seconds,
                row.tagged.execution_seconds,
                row.speedup,
                row.tagged.row_count,
            ]
            for row in self.rows
        ]
        return format_table(headers, rows, title=f"Figure {self.figure} ({self.parameter_name})")


def _session_for(table_size: int, seed: int) -> Session:
    catalog = generate_synthetic_catalog(SyntheticConfig(table_size=table_size, seed=seed))
    return Session(catalog, stats_sample_size=min(table_size, 10_000))


def run_selectivity_sweep(
    selectivities=DEFAULT_SELECTIVITIES,
    table_size: int = 10_000,
    repetitions: int = 3,
    seed: int = 42,
) -> SyntheticSweepResult:
    """Figure 4a: DNF query, selectivity sweep."""
    session = _session_for(table_size, seed)
    result = SyntheticSweepResult("4a", "selectivity", "bdisj", "tcombined")
    for selectivity in selectivities:
        query = make_dnf_query(num_root_clauses=2, selectivity=selectivity)
        baseline = time_query(session, query, "bdisj", repetitions)
        tagged = time_query(session, query, "tcombined", repetitions)
        result.rows.append(SyntheticSweepRow(selectivity, baseline, tagged))
    return result


def run_table_size_sweep(
    table_sizes=DEFAULT_TABLE_SIZES,
    selectivity: float = 0.2,
    repetitions: int = 3,
    seed: int = 42,
) -> SyntheticSweepResult:
    """Figure 4b: CNF query, table size sweep."""
    result = SyntheticSweepResult("4b", "table_size", "bpushconj", "tcombined")
    for table_size in table_sizes:
        session = _session_for(table_size, seed)
        query = make_cnf_query(num_root_clauses=2, selectivity=selectivity)
        baseline = time_query(session, query, "bpushconj", repetitions)
        tagged = time_query(session, query, "tcombined", repetitions)
        result.rows.append(SyntheticSweepRow(float(table_size), baseline, tagged))
    return result


def run_root_clause_sweep(
    root_clauses=DEFAULT_ROOT_CLAUSES,
    table_size: int = 10_000,
    selectivity: float = 0.2,
    repetitions: int = 3,
    seed: int = 42,
) -> SyntheticSweepResult:
    """Figure 4c: DNF query, number-of-root-clauses sweep."""
    session = _session_for(table_size, seed)
    result = SyntheticSweepResult("4c", "root_clauses", "bdisj", "tcombined")
    for clauses in root_clauses:
        query = make_dnf_query(num_root_clauses=clauses, selectivity=selectivity)
        baseline = time_query(session, query, "bdisj", repetitions)
        tagged = time_query(session, query, "tcombined", repetitions)
        result.rows.append(SyntheticSweepRow(float(clauses), baseline, tagged))
    return result


def run_outer_factor_sweep(
    outer_factors=DEFAULT_OUTER_FACTORS,
    table_size: int = 10_000,
    selectivity: float = 0.2,
    repetitions: int = 3,
    seed: int = 42,
) -> SyntheticSweepResult:
    """Figure 4d: CNF query, outer conjunctive factor sweep."""
    session = _session_for(table_size, seed)
    result = SyntheticSweepResult("4d", "outer_factor", "bpushconj", "tcombined")
    for factor in outer_factors:
        query = make_cnf_query(
            num_root_clauses=2, selectivity=selectivity, outer_factor=factor
        )
        baseline = time_query(session, query, "bpushconj", repetitions)
        tagged = time_query(session, query, "tcombined", repetitions)
        result.rows.append(SyntheticSweepRow(factor, baseline, tagged))
    return result
