"""Profile N warm passes of one ``benchmarks/e2e`` workload (read-only use of it).

    python3 scripts/profile_workload.py job_warm [passes] [--sort cumulative] [--seed 23]
    python3 scripts/profile_workload.py ingest_serve --only /plan

Prints the best-of and worst-of latency per statement (best-of is what
``harness.Window.steady`` feeds into p50 / p90 / ``throughput_qps``, so a
statement that is slow once per period — the first read after a compaction —
only shows in the worst-of column; measured under the profiler, so inflated
but comparable), the wall and process CPU time of all profiled operations
(CPU time of this process alone: shard workers' time is not in it; on a
shared host it moves less between identical runs than wall time does), then
the top 25 functions by own time — the view that shows
what an operator's self-time in the layer split is actually spent on — or,
with ``--sort cumulative``, by time including callees, which shows the share
of a method whose work happens in the functions it calls.  ``--seed``
picks the workload's data and statements (default 7, the benchmark's seed).
``--only SUBSTR`` still runs every pass in full but profiles and times only
the operations whose ``kind/key`` contains ``SUBSTR`` — ``--only /plan`` on
``ingest_serve`` shows its re-plans without the commits and compaction.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from workloads import WORKLOADS  # noqa: E402


def main(name: str, passes: int, sort: str, seed: int, only: str) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        workload = WORKLOADS[name](seed, False, Path(scratch))
        workload.setup()
        try:
            workload.begin_window()
            profiler = cProfile.Profile()
            seen: dict[tuple[str, str], list[float]] = {}
            cpu_seconds = 0.0
            for _ in range(passes):
                for op in workload.operations():
                    if only not in f"{op.kind}/{op.key}":
                        op.call(False)
                        continue
                    started, cpu_started = time.perf_counter(), time.process_time()
                    profiler.runcall(op.call, False)
                    cpu_seconds += time.process_time() - cpu_started
                    seen.setdefault((op.kind, op.key), []).append(time.perf_counter() - started)
        finally:
            workload.close()
    print("   best ms   worst ms")
    for (kind, key), seconds in sorted(seen.items(), key=lambda item: -min(item[1])):
        print(f"{min(seconds) * 1e3:10.2f} {max(seconds) * 1e3:10.2f}  {kind}/{key}")
    wall_seconds = sum(sum(seconds) for seconds in seen.values())
    print(f"profiled operations: {wall_seconds:.3f} s wall, {cpu_seconds:.3f} s process CPU")
    pstats.Stats(profiler).sort_stats(sort).print_stats(25)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="job_warm", choices=sorted(WORKLOADS))
    parser.add_argument("passes", nargs="?", type=int, default=5)
    parser.add_argument("--sort", default="tottime", choices=("tottime", "cumulative"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--only", default="", metavar="SUBSTR")
    args = parser.parse_args()
    main(args.workload, args.passes, args.sort, args.seed, args.only)
