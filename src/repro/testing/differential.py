"""Differential execution: every planner must agree with the oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.session import Session
from repro.plan.query import Query
from repro.storage.catalog import Catalog
from repro.testing.datagen import RandomCatalogConfig, generate_random_catalog
from repro.testing.oracle import evaluate_oracle
from repro.testing.querygen import RandomQueryConfig, generate_random_query

#: Planners exercised by default (one per execution model plus the search planners).
DEFAULT_PLANNERS = (
    "tpushdown",
    "tpullup",
    "titerpush",
    "tpushconj",
    "tcombined",
    "texhaustive",
    "bdisj",
    "bpushconj",
)


@dataclass
class DifferentialReport:
    """The outcome of running one query under several planners and the oracle."""

    query_name: str
    row_count: int
    planner_rows: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        """True when every planner matched the oracle."""
        return not self.mismatches

    def describe(self) -> str:
        """One-line summary."""
        status = "OK" if self.agreed else "MISMATCH " + ", ".join(self.mismatches)
        return f"{self.query_name}: {self.row_count} rows, {status}"


def run_differential(
    catalog: Catalog,
    query: Query,
    planners: tuple[str, ...] = DEFAULT_PLANNERS,
    session: Session | None = None,
) -> DifferentialReport:
    """Execute ``query`` under every planner and compare against the oracle."""
    session = session or Session(catalog)
    expected = evaluate_oracle(catalog, query)
    report = DifferentialReport(query_name=query.name or str(query), row_count=len(expected))

    for planner in planners:
        result = session.execute(query, planner=planner)
        report.planner_rows[planner] = result.row_count
        actual = result.sorted_rows()
        if actual != expected:
            report.mismatches.append(
                f"{planner} returned {len(actual)} rows, oracle returned {len(expected)}"
                if len(actual) != len(expected)
                else f"{planner} returned different rows than the oracle"
            )
    return report


def run_fuzz_campaign(
    num_queries: int = 10,
    seed: int = 0,
    catalog_config: RandomCatalogConfig | None = None,
    planners: tuple[str, ...] = DEFAULT_PLANNERS,
) -> list[DifferentialReport]:
    """Run a small fuzzing campaign: random catalog, random queries, all planners.

    Each query gets its own derived seed so campaigns are reproducible; the
    catalog is shared across the campaign (statistics collection dominates
    otherwise).
    """
    catalog_config = catalog_config or RandomCatalogConfig(seed=seed)
    catalog = generate_random_catalog(catalog_config)
    session = Session(catalog)

    reports = []
    for index in range(num_queries):
        query_config = RandomQueryConfig(seed=seed * 10_000 + index)
        query = generate_random_query(catalog, query_config)
        reports.append(
            run_differential(catalog, query, planners=planners, session=session)
        )
    return reports
