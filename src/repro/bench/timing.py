"""The one routine that times planners against each other: :func:`time_planners`.

Every planner comparison — the paper's figures (:mod:`repro.bench.figures`),
``repro compare`` and the examples — runs through it, so all of them share
one protocol:

* one untimed warm-up execution per planner, so no planner pays the
  process's one-time work (imports, lazily built zone maps);
* ``passes`` timed passes, the planners' order rotating by one every pass,
  so no planner always runs first;
* every execution on a fresh :class:`~repro.engine.session.Session` over the
  shared catalog, so no planner inherits the statistics, tag algebra or
  plans another one warmed;
* every execution's rows equal, in any order, to the first planner's
  warm-up rows (compared by an order-independent digest).

A planner is named as :data:`~repro.engine.session.PLANNERS` spells it;
``-naive`` after the name plans with naive (ungeneralized) tags.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.planner.combined import TCombinedPlanner
from repro.engine.result import OutputColumns
from repro.engine.session import Session
from repro.plan.query import Query
from repro.storage.catalog import Catalog

#: The planners the paper's TMin oracle minimizes over (Figure 3c): the
#: candidate planners TCombined itself considers, read from it so the two
#: cannot drift apart.  TExhaustive is an extension beyond the paper and is
#: not a candidate, so TMin keeps its meaning.
TMIN_CANDIDATES = tuple(planner.name for planner in TCombinedPlanner.CANDIDATES)

NAIVE_SUFFIX = "-naive"


@dataclass
class PlannerTimes:
    """What :func:`time_planners` measured, keyed by planner."""

    #: Planning plus execution seconds, one entry per timed pass.
    totals: dict[str, list[float]] = field(default_factory=dict)
    #: Execution seconds, one entry per timed pass.
    execs: dict[str, list[float]] = field(default_factory=dict)
    #: The work counters of each planner's warm-up execution.
    metrics: dict[str, dict[str, int]] = field(default_factory=dict)
    row_count: int = 0

    def fastest(self, planners: Sequence[str]) -> str:
        """The planner of ``planners`` with the lowest median total."""
        return min(planners, key=lambda planner: np.median(self.totals[planner]))

    def ratio(self, baseline: str, tagged: str, exec_only: bool = False) -> np.ndarray:
        """First quartile, median and third quartile of the per-pass ratios
        ``baseline / tagged`` of total (or execution) time; above 1 the
        tagged planner is faster."""
        times = self.execs if exec_only else self.totals
        ratios = np.divide(times[baseline], times[tagged])
        return np.percentile(ratios, (25, 50, 75))


def time_planners(
    catalog: Catalog,
    query: Query | str,
    planners: Sequence[str],
    passes: int,
    **session_options,
) -> PlannerTimes:
    """Time ``query`` under every planner of ``planners`` (see the module
    docstring for the protocol); ``session_options`` configure each fresh
    session.  A planner whose rows differ from the first planner's raises
    ``AssertionError`` naming both."""
    if passes < 1:
        raise ValueError(f"passes must be at least 1, got {passes}")
    planners = tuple(dict.fromkeys(planners))
    name = query if isinstance(query, str) else query.name or "query"
    times = PlannerTimes(
        {planner: [] for planner in planners}, {planner: [] for planner in planners}
    )
    reference: tuple[str, tuple[int, int, int]] | None = None

    def run(planner: str):
        nonlocal reference
        result = Session(catalog, **session_options).execute(
            query,
            planner=planner.removesuffix(NAIVE_SUFFIX),
            naive_tags=planner.endswith(NAIVE_SUFFIX) or None,
        )
        digest = _digest(result.output)
        if reference is None:
            reference = (planner, digest)
        elif digest != reference[1]:
            raise AssertionError(
                f"{name}: {planner} returned {digest[0]} rows that differ from "
                f"{reference[0]}'s {reference[1][0]}"
            )
        return result

    for planner in planners:
        result = run(planner)
        times.metrics[planner] = result.metrics.as_dict()
        times.row_count = result.row_count
    for index in range(passes):
        shift = index % len(planners)
        for planner in planners[shift:] + planners[:shift]:
            result = run(planner)
            times.totals[planner].append(result.total_seconds)
            times.execs[planner].append(result.execution_seconds)
    return times


def _digest(output: OutputColumns) -> tuple[int, int, int]:
    """The row count and two 64-bit sums over the rows' hashes: equal for
    equal multisets of rows in any order, and for different ones only by a
    chance near 2**-64.  Hashes bit patterns, so ``1`` and ``1.0`` differ."""
    rows = np.zeros(output.row_count, dtype=np.uint64)
    for values, nulls in output.columns:
        if values.dtype.kind == "O":
            bits = np.fromiter(map(hash, values), dtype=np.int64, count=len(values))
        else:
            bits = values.astype(np.float64 if values.dtype.kind == "f" else np.int64)
        rows = _mix(rows ^ np.where(nulls, _NULL_BITS, bits.view(np.uint64)))
    return output.row_count, int(rows.sum()), int(_mix(rows + _NULL_BITS).sum())


_NULL_BITS = np.uint64(0x9E3779B97F4A7C15)


def _mix(bits: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, elementwise (uint64 arithmetic wraps)."""
    bits = (bits ^ (bits >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    bits = (bits ^ (bits >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return bits ^ (bits >> np.uint64(31))
