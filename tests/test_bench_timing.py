"""The one planner-timing routine, observed through the workload history.

Every execution of :func:`repro.bench.timing.time_planners` goes through
``Session.execute``, which records it on the process-ambient history; a
history that remembers the planners' order (and, for the mismatch tests,
changes the data after its first record) shows the protocol from outside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Catalog, Table
from repro.bench.figures import FIGURES
from repro.bench.timing import TMIN_CANDIDATES, _digest, time_planners
from repro.engine.result import OutputColumns
from repro.obs.history import WorkloadHistory, set_history
from repro.workloads.job import job_query


class PlannerLog(WorkloadHistory):
    """Remembers each execution's planner and row count; optionally deletes
    rows from a catalog once ``mutate_after`` executions were recorded."""

    def __init__(self, catalog: Catalog | None = None, mutate_after: int = 0) -> None:
        super().__init__(detect_regressions=False)
        self.runs: list[tuple[str, int]] = []
        self.catalog, self.mutate_after = catalog, mutate_after

    def record_query(self, record, trace=None):
        self.runs.append((record.planner, record.rows))
        if self.catalog is not None and len(self.runs) == self.mutate_after:
            batch = self.catalog.begin_mutation()
            batch.delete("t", positions=[0, 1])
            batch.commit()
        return []


@pytest.fixture()
def log():
    history = PlannerLog()
    previous = set_history(history)
    yield history
    set_history(previous)


@pytest.mark.parametrize("figure", ("fig3a", "fig4a"))
def test_protocol(figure, log, imdb_catalog, synthetic_catalog):
    spec = FIGURES[figure]
    planners = (spec.baseline, *spec.tagged)
    if figure == "fig3a":
        catalog, query = imdb_catalog, job_query(1)
    else:
        catalog, query = synthetic_catalog, spec.query(0.3)
    times = time_planners(catalog, query, planners, 2, stats_sample_size=4_000)

    # An untimed warm-up per planner, then two timed passes.
    assert len(log.runs) == len(planners) * 3
    for planner in planners:
        assert len(times.totals[planner]) == len(times.execs[planner]) == 2
    # Every execution returned the warm-up's rows.
    assert {rows for _, rows in log.runs} == {times.row_count}
    # The order rotates: each pass starts with another planner.
    passes = [log.runs[start:start + 2] for start in (2, 4)]
    assert passes[0][0][0] != passes[1][0][0]
    assert [planner for planner, _ in passes[0]] == list(planners)

    low, median, high = times.ratio(spec.baseline, spec.tagged[0])
    assert 0 < low <= median <= high


def _catalog() -> Catalog:
    return Catalog([Table.from_dict("t", {"id": list(range(10)), "v": list(range(10))})])


SQL = "SELECT t.id FROM t AS t WHERE (t.v < 3) OR (t.v > 6)"


@pytest.mark.parametrize(
    ("planners", "mutate_after", "culprit", "reference"),
    [
        (("bdisj", "tcombined"), 1, "tcombined", "bdisj"),
        # Figure 3c's list: the baseline, then TMin's candidates.
        (("bpushconj", *TMIN_CANDIDATES), 2, TMIN_CANDIDATES[1], "bpushconj"),
    ],
)
def test_different_rows_raise_naming_both_planners(planners, mutate_after, culprit, reference):
    catalog = _catalog()
    previous = set_history(PlannerLog(catalog, mutate_after))
    try:
        with pytest.raises(AssertionError, match=f"{culprit} returned 4 rows .* {reference}'s 6"):
            time_planners(catalog, SQL, planners, 1)
    finally:
        set_history(previous)


def test_naive_suffix_plans_with_naive_tags(log):
    times = time_planners(_catalog(), SQL, ("tpushdown-naive", "tpushdown"), 1)
    assert times.row_count == 6
    # Naive tags are a planning option: both plans run as TPushdown.
    assert [planner for planner, _ in log.runs] == ["tpushdown"] * 4
    naive, generalized = times.metrics["tpushdown-naive"], times.metrics["tpushdown"]
    assert naive["slices_created"] > generalized["slices_created"]


def test_rows_compare_as_a_multiset():
    def digest(ids, names, null_at):
        nulls = np.zeros(len(ids), dtype=np.bool_)
        nulls[null_at] = True
        columns = [(np.array(ids), nulls), (np.array(names, dtype=object), nulls)]
        return _digest(OutputColumns(["t.id", "t.name"], columns, len(ids)))

    reference = digest([3, 1, 2, 1], ["c", "a", "b", "z"], 3)
    # The same rows in another order, with other values under the NULLs.
    assert digest([1, 7, 2, 3], ["a", None, "b", "c"], 1) == reference
    assert digest([1, 7, 2, 3], ["a", None, "b", "d"], 1) != reference
    # A row's values stay together: swapping names between rows is a change.
    assert digest([1, 7, 2, 3], ["a", None, "c", "b"], 1) != reference
    assert digest([3.0, 1, 2, 1], ["c", "a", "b", "z"], 3) != reference
