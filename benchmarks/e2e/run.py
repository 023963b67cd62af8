"""End-to-end + per-layer benchmark of the tagged-execution engine.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this interpreter.  ``--trace 0`` measures the end-to-end
    metrics untraced; ``--trace 1`` measures the per-layer metrics (a traced
    window, an untraced window for the tracing overhead, then the layer's
    side-by-side experiments).  Every metric is printed by name with its
    unit; the last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--repeats R] [--out FILE]``
    The whole suite: every workload, both modes, each in a fresh interpreter
    (so set-up time, peak memory and cache state are per workload), gathered
    into one record that ``compare.py`` diffs.

Metric names, units, directions and regression bounds are declared once, in
``BENCHMARK.json`` at the repository root; a run that would emit anything
else fails.  This file claims no performance gain (``"claim": null``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from multiprocessing import forkserver, resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from harness import Window, median, now, percentile_ms, run_window  # noqa: E402
from repro.core.planner.base import PlannerContext  # noqa: E402
from repro.core.tagmap import TagMapBuilder  # noqa: E402
from repro.engine import session as engine_session  # noqa: E402
from repro.engine.metrics import aggregate_metrics  # noqa: E402
from repro.service import service as service_module  # noqa: E402
from repro.sql import parse_query  # noqa: E402
from repro.storage.iostats import IOStats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
FLUSH_POLICY = "fsync per commit (load_catalog(durable=True) default)"


def host_context(seed: int) -> dict:
    """Where and on what this run happened."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "flush_policy": FLUSH_POLICY,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus its (reaped) children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_multiprocessing_helpers() -> None:
    """End the fork server and resource tracker the shard pool started, and wait.

    Both normally linger until the interpreter exits; stopping them here means
    no process outlives the run and the shard workers' memory (children of
    the fork server) is counted by ``peak_rss_mb``.
    """
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def end_to_end_metrics(window: Window, setup_seconds: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_seconds),
        "query_p50_ms": percentile_ms(window.steady("read"), 0.5),
        "query_p90_ms": percentile_ms(window.steady("read"), 0.9),
        "throughput_qps": len(window.ops) / sum(window.steady()),
    }


def layer_metrics(
    workload, per_op: dict, traced: Window, untraced: Window, caches, tagmap_entries
) -> dict:
    """The per-layer metrics every workload can state (0 where a layer is idle)."""
    spans = workload.spans
    reads = [op for op in traced.ops if op.kind == "read"]

    def layer_ms(name: str) -> float:
        """Median over the traced reads of the time spent in spans called ``name``."""
        return median(per_op.get(op.operation, {}).get(name, 0.0) for op in reads)

    def kept_ms(name: str) -> float:
        return sum(per_op.get(op.operation, {}).get(name, 0.0) for op in kept)

    hits = [op for op in reads if op.cache_hit]
    kept = [op for op in traced.kept if op.kind == "read"]
    work = aggregate_metrics(op.result.metrics for op in kept)
    io = IOStats()
    for op in kept:
        io.merge(op.result.iostats)
    before, after = caches

    def hit_rate(cache: str) -> float:
        hits_, misses = (after[cache][k] - before[cache][k] for k in ("hits", "misses"))
        return hits_ / (hits_ + misses) if hits_ + misses else 0.0

    sql = [s for s in workload.statements.values() if isinstance(s, str)]
    parse_ms = []
    for statement in sql:
        started = now()
        parse_query(statement)
        parse_ms.append((now() - started) * 1e3)
    touched = work.pages_pruned + io.pages_read + io.pages_hit
    compactions = [op for op in traced.kept if op.kind == "compact"]
    return {
        "sql.parse_ms": median(parse_ms),
        "service.fingerprint_ms": layer_ms("service.fingerprint"),
        "service.overhead_ms": median(
            per_op[op.operation]["op.read"] - per_op[op.operation].get("engine.execute", 0.0)
            for op in hits
        ),
        "service.plan_cache_hit_rate": hit_rate("plan_cache"),
        "service.stats_cache_hit_rate": hit_rate("stats_cache"),
        "service.replans": sum(1 for op in kept if not op.cache_hit),
        "optimizer.estimates_ms": layer_ms("optimizer.estimates"),
        "plan.prepare_ms": layer_ms("plan.prepare"),
        "core.tagmap_build_ms": layer_ms("core.tagmap_build"),
        "core.tagmap_entries": sum(tagmap_entries.values()),
        "core.predicate_rows_evaluated": work.predicate_rows_evaluated,
        "core.tuples_materialized": work.tuples_materialized,
        "core.slices_created": work.slices_created,
        "access.resolve_ms": layer_ms("access_paths.resolve"),
        "access.pages_pruned": work.pages_pruned,
        "access.prune_ratio": work.pages_pruned / touched if touched else 0.0,
        "access.index_build_ms": spans.total_ms("access.index_build"),
        "engine.execute_ms": layer_ms("engine.execute"),
        "physical.scan_self_ms": layer_ms("physical.scan"),
        "physical.filter_self_ms": layer_ms("physical.filter"),
        "physical.join_self_ms": layer_ms("physical.join"),
        "physical.project_self_ms": layer_ms("physical.project"),
        "kernels.clause_rows_evaluated": work.clause_rows_evaluated,
        "kernels.filter_mrows_per_s": _rate(work.clause_rows_evaluated, kept_ms("physical.filter")),
        "utils.join_build_rows": work.join_build_rows,
        "utils.join_probe_rows": work.join_probe_rows,
        "utils.join_mrows_per_s": _rate(
            work.join_build_rows + work.join_probe_rows, kept_ms("physical.join")
        ),
        "engine.hash_tables_built": work.hash_tables_built,
        "engine.morsels_executed": work.morsels_executed,
        "engine.shards_executed": work.shards_executed,
        "engine.postprocess_ms": layer_ms("engine.postprocess"),
        "storage.pages_read": io.pages_read,
        "storage.pages_hit": io.pages_hit,
        "storage.values_read": io.values_read,
        "storage.save_ms": spans.total_ms("storage.save"),
        "storage.load_ms": spans.total_ms("storage.load"),
        "mutation.commit_p50_ms": percentile_ms(untraced.latencies("commit"), 0.5),
        "mutation.commit_p90_ms": percentile_ms(untraced.latencies("commit"), 0.9),
        "mutation.compact_ms": percentile_ms(traced.latencies("compact"), 0.5),
        "mutation.compact_rows_reclaimed": sum(op.result["rows_reclaimed"] for op in compactions),
        "obs.trace_overhead_x": percentile_ms(traced.steady("read"), 0.5)
        / percentile_ms(untraced.steady("read"), 0.5),
    }


def _rate(rows: int, milliseconds: float) -> float:
    """Million rows per second (0 when the layer did not run)."""
    return rows / milliseconds / 1e3 if milliseconds else 0.0


def install_wraps(spans, tagmap_entries: dict) -> None:
    """Spans around the public calls into each layer (traced runs only)."""

    def chosen_plan(prepared) -> None:
        if prepared.annotations is not None:
            tagmap_entries[prepared.query.canonical_key()] = prepared.annotations.num_tags()

    spans.wrap(service_module, "query_fingerprint", "service.fingerprint")
    spans.wrap(engine_session.Session, "prepare", "plan.prepare", on_result=chosen_plan)
    spans.wrap(PlannerContext, "for_query", "optimizer.estimates")
    spans.wrap(TagMapBuilder, "build", "core.tagmap_build")
    spans.wrap(engine_session.Session, "execute_prepared", "engine.execute")
    spans.wrap(engine_session, "apply_output_shaping", "engine.postprocess")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, scratch: Path,
    trace_out: Path | None = None,
) -> dict:
    """Set up, check, measure and tear down one workload; returns the result object."""
    workload = WORKLOADS[name](seed, smoke, scratch)
    spans = workload.spans
    tagmap_entries: dict[str, int] = {}
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            install_wraps(spans, tagmap_entries)
        setup_seconds = []
        for _ in range(1 if trace or smoke else workload.setup_repeats):
            started = now()
            with spans.span("setup"):
                workload.setup()
            setup_seconds.append(now() - started)
        wrong = workload.reference()
        if trace:
            caches = [workload.service.cache_metrics()]
            traced = run_window(workload, 0.3 * seconds, spans, trace=True)
            spans.unwrap_all()
            untraced = run_window(workload, 0.3 * seconds, spans, trace=False)
            caches.append(workload.service.cache_metrics())
            per_op = spans.per_operation_ms()
            metrics = {metric["name"]: 0.0 for metric in DECLARED["per_layer"]}
            metrics.update(
                layer_metrics(workload, per_op, traced, untraced, caches, tagmap_entries)
            )
            metrics.update(workload.layer_experiments(0.4 * seconds))
            windows = [traced, untraced]
        else:
            window = run_window(workload, seconds, spans, trace=False)
            metrics = end_to_end_metrics(window, setup_seconds)
            windows = [window]
        wrong += workload.finish()
    finally:
        spans.unwrap_all()
        workload.close()
        stop_multiprocessing_helpers()
    for key in wrong:
        print(f"wrong result against the reference: {name} {key}", file=sys.stderr)
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()  # now that the workload's processes are gone

    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise SystemExit(
            f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}"
        )
    attempted = sum(w.attempted for w in windows) + len(workload.statements)
    failed = sum(w.failed for w in windows) + len(wrong)
    reads = sum(len(w.latencies("read")) for w in windows)
    context = host_context(seed)
    print(f"# {name} trace={int(trace)} passes={[w.passes for w in windows]} "
          f"read samples={reads} context={json.dumps(context)}")
    for metric, value in metrics.items():
        print(f"{name:18s} {metric:36s} {value:16.6g} {declared[metric]}")
    if trace:
        print_shares(name, per_op, traced)
    if trace_out is not None:
        trace_out.write_text(json.dumps({"context": context, "spans": spans.to_json()}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": declared[metric]} for metric, value in metrics.items()
        },
    }


#: Span names whose share of the read time is printed (the engine tracer's own
#: query/plan/execute/morsel spans repeat what these already cover).
SHARE_LAYERS = {
    "service.fingerprint", "plan.prepare", "optimizer.estimates", "core.tagmap_build",
    "engine.execute", "access_paths.resolve", "physical.scan", "physical.filter",
    "physical.join", "physical.project", "engine.postprocess",
}


def print_shares(name: str, per_op: dict, traced: Window) -> None:
    """Share of the traced read time each layer's spans account for."""
    reads = [per_op[op.operation] for op in traced.ops if op.kind == "read"]
    total = sum(op["op.read"] for op in reads)
    layers = sorted({layer for op in reads for layer in op} & SHARE_LAYERS)
    shares = {layer: sum(op.get(layer, 0.0) for op in reads) / total for layer in layers}
    print(f"# {name} share of traced read time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ))


# --------------------------------------------------------------------------- #
# The suite
# --------------------------------------------------------------------------- #
#: Workloads whose point is parallel speed-up need the cores to show it.
MIN_CPUS = {"fact_scan": 2, "fact_scan_shards": 2}


def run_suite(seed: int, seconds: float, repeats: int, smoke: bool, out: Path | None) -> int:
    record = {"context": host_context(seed), "claim": None, "repeats": repeats, "workloads": {}}
    failed = 0
    for workload in DECLARED["workloads"]:
        name = workload["name"]
        if (os.cpu_count() or 1) < MIN_CPUS.get(name, 1):
            reason = f"needs {MIN_CPUS[name]} CPUs, host has {os.cpu_count()}"
            record["workloads"][name] = {"skipped": reason}
            print(f"{name}: skipped: {reason}")
            continue
        entry = {"attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
        for trace in (0, 1):
            runs = []
            for _ in range(repeats if trace == 0 else 1):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                ] + (["--smoke"] if smoke else [])
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                try:  # a run with failed operations exits non-zero but still reports
                    runs.append(json.loads(done.stdout.splitlines()[-1]))
                except (IndexError, ValueError):
                    raise SystemExit(f"{name} --trace {trace} exited with {done.returncode}")
            entry["attempted"] += sum(run["attempted"] for run in runs)
            entry["failed"] += sum(run["failed"] for run in runs)
            for metric, first in runs[0]["metrics"].items():
                values = [run["metrics"][metric]["value"] for run in runs]
                if trace:
                    entry["per_layer"][metric] = {"value": values[0], "unit": first["unit"]}
                else:
                    entry["end_to_end"][metric] = {
                        "median": statistics.median(values),
                        "values": values,
                        "unit": first["unit"],
                    }
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        failed += entry["failed"]
        record["workloads"][name] = entry
    if out is not None:
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(DECLARED["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny data, for the smoke test")
    parser.add_argument("--trace-out", type=Path, help="write the span dump here")
    parser.add_argument("--repeats", type=int, default=1, help="suite: untraced runs per workload")
    parser.add_argument("--out", type=Path, help="suite: write the record here")
    args = parser.parse_args()
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.repeats, args.smoke, args.out)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        ROOT / ".bench_tmp", args.trace_out,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
