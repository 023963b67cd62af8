"""Serving repeated traffic: the QueryService plan and stats caches.

A dashboard, API or benchmark harness sends the same handful of query
templates over and over.  ``Session.execute`` re-parses and re-plans every
call (its statistics cache spares it only the sampling and measuring);
``QueryService`` does that work once per distinct query
and serves every repeat from its plan cache — falling back transparently
when the catalog changes, because cached plans are keyed by the catalog
version.

Run with::

    python examples/query_service.py
"""

import sys
from pathlib import Path

# Allow running from a fresh checkout: prefer the in-repo package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import QueryService, Session
from repro.bench.report import format_table
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_catalog, make_dnf_query


def main(table_size: int = 1_500, repeats: int = 5) -> None:
    catalog = generate_synthetic_catalog(SyntheticConfig(table_size=table_size, seed=11))
    session = Session(catalog, stats_sample_size=table_size)
    queries = [
        make_dnf_query(num_root_clauses=clauses, selectivity=selectivity)
        for clauses, selectivity in ((2, 0.2), (3, 0.3))
    ]

    with QueryService(session, max_workers=4) as service:
        rows = []
        for repeat in range(repeats):
            for query in queries:
                result = service.execute(query, planner="tcombined")
                rows.append(
                    [
                        repeat,
                        query.name,
                        result.row_count,
                        "hit" if result.cache_hit else "miss",
                        f"{result.planning_seconds * 1000:.2f}",
                        f"{result.execution_seconds * 1000:.2f}",
                    ]
                )
        print(
            format_table(
                ["pass", "query", "rows", "plan cache", "planning (ms)", "execution (ms)"],
                rows,
            )
        )

        print("\ncache counters after the serial loop:")
        for cache_name, counters in sorted(service.cache_metrics().items()):
            print(f"  {cache_name}: " + ", ".join(
                f"{key}={value:.2f}" if key == "hit_rate" else f"{key}={int(value)}"
                for key, value in sorted(counters.items())
            ))

        report = service.execute_batch(queries * repeats, planner="tcombined")
        print(
            f"\nwarm batch across 4 threads: {len(report.succeeded)}/{len(report)} ok, "
            f"{report.queries_per_second:.1f} queries/s "
            f"(wall {report.wall_seconds:.3f}s)"
        )


if __name__ == "__main__":
    main()
