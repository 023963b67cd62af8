"""Synthetic sweep: a miniature version of the paper's Figure 4a and 4b.

Sweeps predicate selectivity (DNF, Figure 4a) and table size (CNF, Figure 4b)
on the synthetic T0/T1/T2 workload and prints the runtime tables.  The shape
to look for: the baseline and tagged curves diverge as selectivity or table
size grows, because traditional execution materializes ever more duplicate
work while tagged execution does not.

Run with::

    python examples/synthetic_sweep.py [table_size]
"""

import sys
from pathlib import Path

# Allow running from a fresh checkout: prefer the in-repo package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import figures


def main(table_size: int | None = None) -> None:
    if table_size is None:
        table_size = int(sys.argv[1]) if len(sys.argv) > 1 else 5_000

    # One warm-up and one timed pass per planner and point (see
    # repro.bench.timing.time_planners).
    print("Figure 4a (DNF, selectivity sweep)")
    figures.main(["fig4a", "--table-size", str(table_size), "--repetitions", "1"])

    print("Figure 4b (CNF, table-size sweep)")
    sizes = sorted({max(250, table_size // 4), max(500, table_size // 2), table_size})
    figures.main(["fig4b", "--sizes", *map(str, sizes), "--repetitions", "1"])


if __name__ == "__main__":
    main()
