"""Command-line entry point for regenerating the paper's figures.

Examples::

    python -m repro.bench.figures fig3a --scale 0.05 --repetitions 3
    python -m repro.bench.figures fig4b --sizes 1000 5000 10000
    python -m repro.bench.figures generalization --quick
    python -m repro.bench.figures all --quick

``--quick`` shrinks every experiment (fewer groups, smaller tables, one
repetition) so a full pass completes in a few minutes on a laptop; drop it
for measurements closer to the defaults described in the "Paper figures"
section of ``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.job_bench import run_job_figure
from repro.bench.synthetic_bench import (
    run_outer_factor_sweep,
    run_root_clause_sweep,
    run_selectivity_sweep,
    run_table_size_sweep,
)

JOB_FIGURES = ("fig3a", "fig3b", "fig3c", "fig3d", "generalization")
SYNTHETIC_FIGURES = ("fig4a", "fig4b", "fig4c", "fig4d")
ALL_FIGURES = JOB_FIGURES + SYNTHETIC_FIGURES


def _run_job(figure: str, args: argparse.Namespace) -> str:
    groups = args.groups or (list(range(1, 13)) if args.quick else None)
    result = run_job_figure(
        figure,
        scale=args.scale,
        repetitions=1 if args.quick else args.repetitions,
        groups=groups,
    )
    return result.to_table()


def _run_synthetic(figure: str, args: argparse.Namespace) -> str:
    repetitions = 1 if args.quick else args.repetitions
    if figure == "fig4a":
        result = run_selectivity_sweep(
            table_size=2_000 if args.quick else args.table_size, repetitions=repetitions
        )
    elif figure == "fig4b":
        sizes = args.sizes or ((1_000, 2_000, 5_000) if args.quick else None)
        kwargs = {"repetitions": repetitions}
        if sizes:
            kwargs["table_sizes"] = tuple(sizes)
        result = run_table_size_sweep(**kwargs)
    elif figure == "fig4c":
        result = run_root_clause_sweep(
            table_size=2_000 if args.quick else args.table_size,
            root_clauses=(2, 3, 4) if args.quick else (2, 3, 4, 5, 6, 7),
            repetitions=repetitions,
        )
    else:
        result = run_outer_factor_sweep(
            table_size=2_000 if args.quick else args.table_size, repetitions=repetitions
        )
    return result.to_table()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", choices=ALL_FIGURES + ("all",), help="figure to regenerate")
    parser.add_argument("--scale", type=float, default=0.05, help="IMDB dataset scale factor")
    parser.add_argument("--repetitions", type=int, default=3, help="runs per measurement")
    parser.add_argument("--table-size", type=int, default=10_000, help="synthetic table size")
    parser.add_argument("--sizes", type=int, nargs="*", help="table sizes for fig4b")
    parser.add_argument("--groups", type=int, nargs="*", help="JOB group subset for fig3*")
    parser.add_argument("--quick", action="store_true", help="small, fast configuration")
    args = parser.parse_args(argv)

    figures = ALL_FIGURES if args.figure == "all" else (args.figure,)
    for figure in figures:
        if figure in JOB_FIGURES:
            print(_run_job(figure, args))
        else:
            print(_run_synthetic(figure, args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
