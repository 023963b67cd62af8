"""The paper's figures, as rows of one table (:data:`FIGURES`), and their CLI.

Examples::

    python -m repro figures fig3a --scale 0.05 --repetitions 5
    python -m repro figures fig4b --sizes 1000 5000 10000
    python -m repro figures generalization --quick
    python -m repro figures all --quick

Each figure compares a baseline planner with a tagged one — for Figure 3c
with TMin, the candidate with the lowest median total — at a list of points:
JOB query groups, or the values of one synthetic sweep.  Every point is
timed by :func:`repro.bench.timing.time_planners` with ``--repetitions``
passes.  A row gives both median totals and the tagged median execution
time (in milliseconds), and the total and execution ratios (baseline /
tagged), each the median of the per-pass ratios with its quartiles.  A
point whose total-ratio quartiles straddle 1.0 is *unresolved*: its passes
do not say which planner is faster.

``--quick`` shrinks every experiment (JOB groups 1-12, 2 000-row synthetic
tables, fewer sweep points); explicit ``--groups``, ``--sizes`` and
``--table-size`` override it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.bench.report import format_table
from repro.bench.timing import TMIN_CANDIDATES, time_planners
from repro.core.factor import factor_common_subexpressions
from repro.plan.query import Query
from repro.storage.catalog import Catalog
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_catalog,
    make_cnf_query,
    make_dnf_query,
)


@dataclass(frozen=True)
class Figure:
    """One figure: the planners it compares and the points it compares them at."""

    baseline: str
    #: The tagged planner, or TMin's candidates.
    tagged: tuple[str, ...]
    #: ``"group"`` for JOB query groups, else the swept synthetic parameter.
    parameter: str = "group"
    points: tuple = ()
    #: The sweep's points under ``--quick`` (empty: the same points).
    quick_points: tuple = ()
    #: A sweep point's query.
    query: Callable[[float], Query] | None = None
    #: Whether common root-clause subexpressions are factored into an AND root.
    factored: bool = False

    @property
    def tagged_name(self) -> str:
        return "tmin" if len(self.tagged) > 1 else self.tagged[0]


FIGURES = {
    # Figure 3: the JOB-style workload.
    "fig3a": Figure("bdisj", ("tcombined",)),
    "fig3b": Figure("bpushconj", ("tcombined",), factored=True),
    "fig3c": Figure("bpushconj", TMIN_CANDIDATES, factored=True),
    "fig3d": Figure("bpushconj", ("tpushconj",), factored=True),
    # Section 3.2: TPushdown with and without tag generalization.
    "generalization": Figure("tpushdown-naive", ("tpushdown",)),
    # Figure 4: synthetic sweeps.
    "fig4a": Figure(
        "bdisj", ("tcombined",), "selectivity", (0.1, 0.3, 0.5, 0.7, 0.9),
        query=lambda selectivity: make_dnf_query(num_root_clauses=2, selectivity=selectivity),
    ),
    "fig4b": Figure(
        "bpushconj", ("tcombined",), "table_size", (1_000, 5_000, 10_000, 25_000, 50_000),
        (1_000, 2_000, 5_000),
        query=lambda _table_size: make_cnf_query(num_root_clauses=2, selectivity=0.2),
    ),
    "fig4c": Figure(
        "bdisj", ("tcombined",), "root_clauses", (2, 3, 4, 5, 6, 7), (2, 3, 4),
        query=lambda clauses: make_dnf_query(num_root_clauses=clauses, selectivity=0.2),
    ),
    "fig4d": Figure(
        "bpushconj", ("tcombined",), "outer_factor", (0.2, 0.4, 0.6, 0.8, 1.0),
        query=lambda factor: make_cnf_query(
            num_root_clauses=2, selectivity=0.2, outer_factor=factor
        ),
    ),
}


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


def point_values(figure: Figure, args: argparse.Namespace) -> list:
    """The points ``figure`` runs at under the command-line ``args``."""
    if figure.parameter == "group":
        return args.groups or list(range(1, 13 if args.quick else len(job_query_groups()) + 1))
    if figure.parameter == "table_size" and args.sizes:
        return args.sizes
    return list((args.quick and figure.quick_points) or figure.points)


def run_figure(name: str, args: argparse.Namespace) -> str:
    """Time every point of figure ``name`` and render the figure's table."""
    figure = FIGURES[name]
    rows, totals, execs, unresolved = [], [], [], 0
    for value in point_values(figure, args):
        if figure.parameter == "group":
            catalog = _imdb_catalog(args.scale)
            query = job_query_groups()[value - 1]
            query = factor_query(query) if figure.factored else query
        else:
            size = value if figure.parameter == "table_size" else args.table_size
            catalog = _synthetic_catalog(size or (2_000 if args.quick else 10_000))
            query = figure.query(value)
        times = time_planners(
            catalog, query, (figure.baseline, *figure.tagged), args.repetitions,
            stats_sample_size=10_000,
        )
        tagged = times.fastest(figure.tagged)
        total = times.ratio(figure.baseline, tagged)
        exec_ = times.ratio(figure.baseline, tagged, exec_only=True)
        totals.append(total[1])
        execs.append(exec_[1])
        unresolved += int(total[0] <= 1.0 <= total[2])
        rows.append([
            f"{value} ({tagged})" if len(figure.tagged) > 1 else value,
            1e3 * np.median(times.totals[figure.baseline]),
            1e3 * np.median(times.totals[tagged]),
            1e3 * np.median(times.execs[tagged]),
            _ratio_cell(total),
            _ratio_cell(exec_),
            times.row_count,
        ])
    title = (
        f"Figure {name.removeprefix('fig')}: {figure.baseline} vs {figure.tagged_name}, "
        f"{args.repetitions} passes (mean of medians {np.mean(totals):.2f}x total / "
        f"{np.mean(execs):.2f}x exec; {unresolved}/{len(rows)} unresolved)"
    )
    headers = [
        figure.parameter,
        f"{figure.baseline} total (ms)",
        f"{figure.tagged_name} total (ms)",
        f"{figure.tagged_name} exec (ms)",
        "total ratio [q1-q3]",
        "exec ratio [q1-q3]",
        "rows",
    ]
    return format_table(headers, rows, title=title)


@functools.cache
def _imdb_catalog(scale: float) -> Catalog:
    return generate_imdb_catalog(scale=scale, seed=7)


@functools.cache
def _synthetic_catalog(table_size: int) -> Catalog:
    return generate_synthetic_catalog(SyntheticConfig(table_size=table_size, seed=42))


def _ratio_cell(quartiles) -> str:
    low, median, high = quartiles
    return f"{median:.2f}x [{low:.2f}-{high:.2f}]"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The figure CLI's arguments (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("figure", choices=(*FIGURES, "all"), help="figure to regenerate")
    parser.add_argument("--scale", type=float, default=0.05, help="IMDB dataset scale factor")
    parser.add_argument("--repetitions", type=int, default=3, help="timed passes per point")
    parser.add_argument("--table-size", type=int, help="synthetic table size")
    parser.add_argument("--sizes", type=int, nargs="*", help="table sizes for fig4b")
    parser.add_argument("--groups", type=int, nargs="*", help="JOB group subset for fig3*")
    parser.add_argument("--quick", action="store_true", help="small, fast configuration")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = parse_args(argv)
    for name in FIGURES if args.figure == "all" else (args.figure,):
        print(run_figure(name, args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
