"""Movie night: JOB-style disjunctive queries on the IMDB-like dataset.

Generates the synthetic IMDB-like catalog, picks a few of the combined JOB
query groups (including the superhero group the paper's Section 5.1 uses as
its example), and compares all planners on them.

Run with::

    python examples/movie_night.py [scale]
"""

import sys
from pathlib import Path

# Allow running from a fresh checkout: prefer the in-repo package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import format_table
from repro.bench.timing import time_planners
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query

#: Query groups showcased: 1 (the Query 1 analogue), 6 and 20 (the groups
#: with the largest Figure 3b speedups), and 30 (a four-table group).
SHOWCASE_GROUPS = (1, 6, 20, 30)
PLANNERS = ("bdisj", "bpushconj", "tpushdown", "tpullup", "titerpush", "tcombined")


def main(scale: float | None = None, groups: tuple[int, ...] = SHOWCASE_GROUPS) -> None:
    if scale is None:
        scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"Generating IMDB-like catalog at scale {scale} ...")
    catalog = generate_imdb_catalog(scale=scale, seed=7)

    for group in groups:
        query = job_query(group)
        print(f"\n=== query group {group} ({query.name}) ===")
        print(query)
        # One warm-up and one timed pass per planner, each on a fresh session;
        # time_planners raises if any planner's rows differ from bdisj's.
        times = time_planners(catalog, query, PLANNERS, 1, stats_sample_size=10_000)
        rows = [
            [
                planner,
                times.totals[planner][0],
                times.execs[planner][0],
                times.metrics[planner]["predicate_rows_evaluated"],
                times.metrics[planner]["tuples_materialized"],
                times.row_count,
            ]
            for planner in PLANNERS
        ]
        print(
            format_table(
                ["planner", "total (s)", "exec (s)", "pred rows", "tuples", "result rows"],
                rows,
            )
        )


if __name__ == "__main__":
    main()
