"""Smoke test of the end-to-end benchmark (collected by the tier-1 run).

Every workload runs at ``--smoke`` scale, where the harness checks each
statement against the brute-force oracle as well as the reference planner.
No timing is asserted — only that the runs are correct, that they emit
exactly the metrics ``BENCHMARK.json`` declares, and that the work counters
repeat exactly for the same seed.
"""

from __future__ import annotations

import pytest

import run

WORKLOADS = [workload["name"] for workload in run.DECLARED["workloads"]]


def declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in run.DECLARED[section]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_smoke(name, tmp_path):
    untraced = run.run_workload(name, 3, 0.05, trace=False, smoke=True, scratch=tmp_path)
    traced = [
        run.run_workload(name, 3, 0.05, trace=True, smoke=True, scratch=tmp_path)
        for _ in range(2)
    ]
    for result in (untraced, *traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    def units(result):
        return {metric: entry["unit"] for metric, entry in result["metrics"].items()}

    assert units(untraced) == declared("end_to_end")
    assert units(traced[0]) == declared("per_layer")
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())

    counters = [
        {m: e["value"] for m, e in result["metrics"].items() if e["unit"] == "count"}
        for result in traced
    ]
    assert counters[0] == counters[1]
    assert counters[0]["storage.values_read"] > 0


def test_workloads_match_declaration():
    assert set(WORKLOADS) == set(run.WORKLOADS)
    assert len(declared("per_layer")) == len(run.DECLARED["per_layer"])
