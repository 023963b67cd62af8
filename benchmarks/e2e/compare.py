"""Diff two suite records: ``python3 benchmarks/e2e/compare.py A.json B.json``.

Per workload and end-to-end metric: both medians, the change from A to B and
a verdict against the bound ``BENCHMARK.json`` fixes —

* ``regressed``  B is worse than A by more than the bound;
* ``unresolved`` it is not, but either side's own run-to-run range is wider
  than the bound, so "unchanged" cannot be told from "changed";
* ``ok``         otherwise.

The work counters of the traced pass (every per-layer metric whose unit is
``count``) must be exactly equal, and B's error rate may not exceed A's.
Exits non-zero on any ``regressed``, count mismatch or error-rate increase.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float], median: float) -> float:
    """Run-to-run range as a share of the median (0 for a single run)."""
    return (max(values) - min(values)) / median if len(values) > 1 and median else 0.0


def compare(a: dict, b: dict, declared: dict) -> int:
    problems = 0
    for name in (w["name"] for w in declared["workloads"]):
        left, right = a["workloads"].get(name), b["workloads"].get(name)
        if left is None or right is None or "skipped" in left or "skipped" in right:
            reasons = [
                side.get("skipped", "ran") if side is not None else "absent"
                for side in (left, right)
            ]
            print(f"{name}: not compared (A: {reasons[0]}; B: {reasons[1]})")
            continue
        for metric in declared["end_to_end"]:
            x, y = left["end_to_end"][metric["name"]], right["end_to_end"][metric["name"]]
            change = (y["median"] - x["median"]) / x["median"]
            worse = change if metric["better"] == "lower" else -change
            noise = max(spread(x["values"], x["median"]), spread(y["values"], y["median"]))
            if worse > metric["bound"]:
                verdict = "regressed"
                problems += 1
            elif noise > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{name:18s} {metric['name']:16s} {x['median']:12.4f} -> {y['median']:12.4f} "
                f"{metric['unit']:5s} {change:+8.2%} (bound {metric['bound']:.0%}, "
                f"range {noise:.1%}) {verdict}"
            )
        for metric in declared["per_layer"]:
            if metric["unit"] != "count":
                continue
            x = left["per_layer"][metric["name"]]["value"]
            y = right["per_layer"][metric["name"]]["value"]
            if x != y:
                print(f"{name:18s} {metric['name']:36s} {x} != {y} count mismatch")
                problems += 1
        if right["error_rate"] > left["error_rate"]:
            print(f"{name:18s} error_rate {left['error_rate']} -> {right['error_rate']} increased")
            problems += 1
    return problems


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = compare(a, b, declared)
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
