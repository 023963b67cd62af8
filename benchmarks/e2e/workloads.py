"""The six workloads: the data each builds from the seed and the operations it issues.

Every workload makes a different layer do most of the work (see README.md);
all of them go through the public ``QueryService`` front door under the
``tcombined`` planner.
"""

from __future__ import annotations

import functools
import os
import shutil
from pathlib import Path

import numpy as np

from harness import Op, SpanLog, digest_columns, digest_result, median, now
from repro import Catalog, Column, QueryService, Session, Table
from repro.access.manager import ensure_access_manager
from repro.engine.shard import shutdown_shard_pools
from repro.mutation.diskops import apply_ops_to_saved_catalog
from repro.mutation.wal import WAL_NAME, DurabilityController
from repro.sql import parse_query
from repro.storage.disk import load_catalog, save_catalog
from repro.testing.oracle import evaluate_oracle
from repro.workloads.imdb import generate_imdb_catalog
from repro.workloads.job import job_query_groups

PLANNER = "tcombined"

#: The planner of the independent execution model results are checked against.
REFERENCE_PLANNER = "bdisj"


class Workload:
    """Base: a catalog, a set of read statements, a warmed service.

    Subclasses override ``build_catalog`` / ``build_statements`` (both draw
    from one generator seeded by ``--seed``, so the same seed gives the same
    inputs) and, where the operations are not just "read every statement",
    ``operations``.
    """

    name = ""
    why = ""
    #: How many times set-up runs (the median is reported).
    setup_repeats = 3
    #: Passes a window always completes; traced work counters are summed over
    #: exactly these, so they do not depend on how many passes fit in the time.
    min_passes = 1
    service_options: dict = {}

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.spans = SpanLog(self.name)
        self.catalog: Catalog | None = None
        self.service: QueryService | None = None
        self.statements: dict[str, object] = {}
        self.expected: dict[str, object] = {}

    # -- inputs ---------------------------------------------------------- #
    def build_catalog(self, rng: np.random.Generator) -> Catalog:
        raise NotImplementedError

    def build_statements(self, rng: np.random.Generator) -> dict[str, object]:
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------- #
    def setup(self) -> None:
        """Everything before the first timed operation; replaces earlier state."""
        self.close()
        rng = np.random.default_rng(self.seed)
        self.catalog = self.build_catalog(rng)
        self.statements = self.build_statements(rng)
        self.service = QueryService(Session(self.catalog), **self.service_options)
        self.warm()

    def warm(self) -> None:
        """Run every statement once: fills the caches, records the digests."""
        self.expected = {key: digest_result(self.read(key)) for key in self.statements}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- checking -------------------------------------------------------- #
    def reference(self, catalog: Catalog | None = None) -> list[str]:
        """Statements whose result differs from an independent evaluation.

        The reference planner runs an independent execution model over the
        same data.  At smoke scale the brute-force oracle is affordable too
        (it evaluates select-project-join statements only).
        """
        catalog = self.catalog if catalog is None else catalog
        session = Session(catalog)
        wrong = []
        for key, statement in self.statements.items():
            reference = session.execute(statement, planner=REFERENCE_PLANNER)
            if digest_result(reference) != self.expected[key]:
                wrong.append(key)
            if self.smoke:
                query = parse_query(statement) if isinstance(statement, str) else statement
                if not query.has_output_shaping and (
                    self.read(key).sorted_rows() != evaluate_oracle(catalog, query)
                ):
                    wrong.append(f"{key} (oracle)")
        return wrong

    def finish(self) -> list[str]:
        """Checks that need the whole run to be over; returns what failed."""
        return []

    # -- operations ------------------------------------------------------ #
    def read(self, key: str, trace: bool = False):
        return self.service.execute(self.statements[key], planner=PLANNER, trace=trace)

    def read_op(self, key: str, cache_hit: bool) -> Op:
        def check(result) -> bool:
            return result.cache_hit == cache_hit and digest_result(result) == self.expected[key]

        statement = f"{key}/{'hit' if cache_hit else 'plan'}"
        return Op("read", statement, functools.partial(self.read, key), check)

    def begin_window(self) -> None:
        """Called before the first pass of each window."""

    def operations(self):
        """One pass."""
        for key in self.statements:
            yield self.read_op(key, cache_hit=True)

    def layer_experiments(self, seconds: float) -> dict[str, float]:
        """Per-layer numbers that need their own side-by-side runs."""
        return {}


# --------------------------------------------------------------------------- #
# JOB-style queries over the IMDB-like catalog
# --------------------------------------------------------------------------- #
#: The IMDB-like generator draws Zipf-skewed keys: total work swings by 10-25 %
#: from one data seed to the next, which would drown every bound.  The data
#: seed is therefore pinned and ``--seed`` permutes the order of the queries.
IMDB_DATA_SEED = 7


class JobQueries(Workload):
    """The 33 JOB-style query groups over the IMDB-like catalog at ``scale``."""

    #: One set-up plans 33 queries (~5 s); repeating it would not fit the run.
    setup_repeats = 1
    scale = 0.0
    smoke_scale = 0.004

    def build_catalog(self, rng):
        scale = self.smoke_scale if self.smoke else self.scale
        return generate_imdb_catalog(scale=scale, seed=IMDB_DATA_SEED)

    def build_statements(self, rng):
        queries = job_query_groups()[: 1 if self.smoke else None]
        return {queries[i].name: queries[i] for i in rng.permutation(len(queries))}


class JobWarm(JobQueries):
    name = "job_warm"
    why = (
        "33 JOB-style disjunctive queries on every pass from a warm plan cache: "
        "tagged execution (physical, core, kernels, join) with planning removed"
    )
    scale = 0.5

    def layer_experiments(self, seconds):
        """Fig. 3a/3b/3d: summed warm execution time of the 33 queries per planner."""
        session = self.service.session
        started = now()
        for key in self.statements:
            self.read(key)  # tcombined: the plans are already in the service's cache
        exec_ms = {PLANNER: (now() - started) * 1e3}
        for planner in ("bdisj", "bpushconj", "tpushconj"):
            plans = [session.prepare(query, planner) for query in self.statements.values()]
            started = now()
            for plan in plans:
                session.execute_prepared(plan)
            exec_ms[planner] = (now() - started) * 1e3
        return {
            "baseline.bdisj_exec_ms": exec_ms["bdisj"],
            "baseline.bpushconj_exec_ms": exec_ms["bpushconj"],
            "core.tagged_speedup_vs_bdisj_x": exec_ms["bdisj"] / exec_ms[PLANNER],
            "core.tagged_speedup_vs_bpushconj_x": exec_ms["bpushconj"] / exec_ms[PLANNER],
            "core.tag_overhead_x": exec_ms["tpushconj"] / exec_ms["bpushconj"],
        }


class JobCold(JobQueries):
    name = "job_cold"
    why = (
        "the same 33 queries with the plan cache emptied before every pass: "
        "planning (tag maps, generalization, estimates) with execution kept small"
    )
    scale = 0.05

    def operations(self):
        self.service.plan_cache.invalidate()
        for key in self.statements:
            yield self.read_op(key, cache_hit=False)


# --------------------------------------------------------------------------- #
# Clustered events table: short indexed lookups, and writes beside them
# --------------------------------------------------------------------------- #
CATEGORIES = 80
RANGE_WIDTH = 1500
JOIN_WIDTH = 900


def events_catalog(rows: int, rng: np.random.Generator, spans: SpanLog) -> Catalog:
    """``events`` clustered by category and time, ``dims``, and two indexes."""
    run = rows // CATEGORIES
    ids = np.arange(rows)
    names = np.array([f"cat_{c:02d}" for c in range(CATEGORIES)], dtype=object)
    events = Table(
        "events",
        [
            Column("id", ids),
            Column("category", names[ids // run]),
            Column("cat_id", ids // run),
            Column("ts", ids.copy()),
            Column("value", rng.random(rows)),
        ],
    )
    dims = Table(
        "dims",
        [Column("did", np.arange(CATEGORIES)), Column("weight", rng.random(CATEGORIES))],
    )
    catalog = Catalog([events, dims])
    manager = ensure_access_manager(catalog)
    with spans.span("access.index_build"):
        manager.create_index("events", "category", kind="bitmap")
        manager.create_index("events", "ts", kind="sorted")
    return catalog


def event_statements(category: int, start: int, early: int) -> dict[str, str]:
    """The four lookup templates (point, range, disjunctive, join) for one literal set."""
    name = f"cat_{category:02d}"
    return {
        "point": f"SELECT e.id FROM events AS e WHERE e.category = '{name}'",
        "range": (
            "SELECT e.id, e.value FROM events AS e "
            f"WHERE e.ts BETWEEN {start} AND {start + RANGE_WIDTH}"
        ),
        "disjunctive": (
            "SELECT e.id FROM events AS e "
            f"WHERE (e.category = '{name}' AND e.value < 0.5) OR e.ts < {early}"
        ),
        "join": (
            "SELECT e.id, d.weight FROM events AS e JOIN dims AS d ON e.cat_id = d.did "
            f"WHERE e.ts BETWEEN {start} AND {start + JOIN_WIDTH} AND d.weight >= 0.0"
        ),
    }


def event_digests(rows: dict[str, np.ndarray], weights, category, start, early) -> dict:
    """What ``event_statements`` return over ``rows`` alone, computed in NumPy.

    This is the row-level mirror the ingest workload keeps its expected
    digests current with; it is itself checked against the reference planner
    on the re-opened dataset when the run ends.
    """
    ids, cat, ts, value = rows["id"], rows["cat_id"], rows["ts"], rows["value"]
    in_category = cat == category
    selected = {
        "point": (in_category, [ids]),
        "range": ((ts >= start) & (ts <= start + RANGE_WIDTH), [ids, value]),
        "disjunctive": ((in_category & (value < 0.5)) | (ts < early), [ids]),
        "join": ((ts >= start) & (ts <= start + JOIN_WIDTH), [ids, weights[cat]]),
    }
    return {
        key: digest_columns([(column[mask], None) for column in columns], int(mask.sum()))
        for key, (mask, columns) in selected.items()
    }


def event_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """Appended events, given as arrays, as the row dicts ``MutationBatch.insert`` takes."""
    return [
        {
            "id": int(i),
            "category": f"cat_{int(c):02d}",
            "cat_id": int(c),
            "ts": int(t),
            "value": float(v),
        }
        for i, c, t, v in zip(columns["id"], columns["cat_id"], columns["ts"], columns["value"])
    ]


class LookupWarm(Workload):
    name = "lookup_warm"
    why = (
        "1-5 ms indexed lookups, all plan-cache hits: the fixed cost per call "
        "(sql memo, fingerprint, cache lookup, access-path resolution, page accounting)"
    )
    rows = 600_000
    smoke_rows = 4_000
    #: 4 templates x 16 literal sets = 64 statements, inside the 256-entry plan cache.
    literal_sets = 16

    def build_catalog(self, rng):
        return events_catalog(self.smoke_rows if self.smoke else self.rows, rng, self.spans)

    def build_statements(self, rng):
        rows = self.catalog.get("events").num_rows
        sets = 2 if self.smoke else self.literal_sets
        categories = rng.choice(CATEGORIES, size=sets, replace=False)
        starts = rng.integers(0, rows - RANGE_WIDTH, size=sets)
        statements = {}
        for index in range(sets):
            literals = int(categories[index]), int(starts[index]), rows // 750 + index
            for template, sql in event_statements(*literals).items():
                statements[f"{template}{index:02d}"] = sql
        return statements


class IngestServe(Workload):
    name = "ingest_serve"
    why = (
        "durable commits (fsync on) beside the lookup templates: WAL, disk apply, "
        "incremental index/stats maintenance, per-table plan invalidation, online compaction"
    )
    rows = 200_000
    smoke_rows = 1_600
    #: A pass is one cycle: 1 commit, then the 4 templates 4 times.  The first
    #: read of a template re-plans, the other three hit the cache, so the
    #: median read is a hit and the 90th percentile a re-plan — neither sits
    #: on the edge between the two modes.
    read_rounds = 4
    append_rows = 100
    delete_every = 5
    delete_rows = 3
    #: Compaction runs after the commit of cycle 10 of a window, then every 20.
    compact_at = 10
    compact_every = 20
    min_passes = 12
    #: Raw bytes of one appended row: three ints, one float, a 6-byte string.
    row_bytes = 38

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.root = scratch / f"{self.name}-{os.getpid()}"
        if smoke:
            self.min_passes, self.compact_at = 5, 4

    def save_dataset(self, root: Path) -> Catalog:
        """Build the seed's dataset and save it at ``root``; returns the built catalog."""
        rng = np.random.default_rng(self.seed)
        catalog = events_catalog(self.smoke_rows if self.smoke else self.rows, rng, self.spans)
        shutil.rmtree(root, ignore_errors=True)
        with self.spans.span("storage.save"):
            save_catalog(catalog, root)
        return catalog

    def setup(self):
        self.close()
        built = self.save_dataset(self.root)
        events = built.get("events")
        #: Column arrays of the saved base rows: deleted rows are looked up here.
        self.base = {name: events.column(name).data for name in ("id", "cat_id", "ts", "value")}
        self.weights = built.get("dims").column("weight").data
        with self.spans.span("storage.load"):
            self.catalog = load_catalog(self.root, durable=True)
        self.service = QueryService(Session(self.catalog))
        rng = np.random.default_rng([self.seed, 1])
        rows = events.num_rows
        self.literals = (
            int(rng.integers(CATEGORIES)),
            int(rng.integers(0, rows - RANGE_WIDTH)),
            rows // 250,
        )
        self.statements = event_statements(*self.literals)
        self.warm()
        self.stream = rng
        self.next_id = rows
        self.commits = self.deleted = self.reclaimed = self.retries = 0

    def close(self):
        super().close()
        if self.catalog is not None and self.catalog.durability is not None:
            self.catalog.durability.reset_writer()
        shutil.rmtree(self.root, ignore_errors=True)

    def next_batch(self, cycle: int):
        """Cycle ``cycle``'s appended rows (as arrays) and deleted ids."""
        count = self.append_rows
        ids = np.arange(self.next_id, self.next_id + count)
        self.next_id += count
        appended = {
            "id": ids,
            "cat_id": self.stream.integers(0, CATEGORIES, size=count),
            "ts": self.stream.integers(0, len(self.base["id"]), size=count),
            "value": self.stream.random(count),
        }
        deleted = np.arange(0)
        if cycle % self.delete_every == self.delete_every - 1:
            # Always the lowest live ids, so that after a compaction (which
            # reclaims exactly those) position = id - rows reclaimed.
            deleted = np.arange(self.deleted, self.deleted + self.delete_rows)
        return appended, deleted

    def commit(self, appended, deleted, trace: bool = False):
        rows = event_rows(appended)
        positions = [int(i) - self.reclaimed for i in deleted]
        attempts = 0

        def stage(batch):
            nonlocal attempts
            attempts += 1
            batch.insert("events", rows)
            if positions:
                batch.delete("events", positions=positions)

        commit = self.service.execute_mutation(stage)
        self.retries += attempts - 1
        return commit

    def begin_window(self):
        self.cycle = 0

    def operations(self):
        cycle = self.cycle
        self.cycle += 1
        appended, deleted = self.next_batch(cycle)
        yield Op(
            "commit",
            "commit+delete" if len(deleted) else "commit",
            functools.partial(self.commit, appended, deleted),
            lambda commit: commit.deltas["events"].appended_rows == self.append_rows,
        )
        self.commits += 1
        self.deleted += len(deleted)
        added = event_digests(appended, self.weights, *self.literals)
        removed = event_digests(
            {name: column[deleted] for name, column in self.base.items()},
            self.weights,
            *self.literals,
        )
        for key in self.statements:
            self.expected[key] = self.expected[key] + added[key] - removed[key]

        if cycle % self.compact_every == self.compact_at:
            pending = self.deleted - self.reclaimed
            yield Op(
                "compact",
                "compact",
                lambda trace: self.service.compact(),
                lambda summary: summary["rows_reclaimed"] == pending,
            )
            self.reclaimed = self.deleted
        for round_ in range(self.read_rounds):
            for key in self.statements:
                yield self.read_op(key, cache_hit=round_ > 0)

    def finish(self):
        """Re-open the dataset: every acknowledged commit must be there."""
        reopened = load_catalog(self.root)
        failed = self.reference(reopened)
        live = len(self.base["id"]) + self.append_rows * self.commits - self.deleted
        if reopened.get("events").num_live != live:
            failed.append("durability")
        return failed

    def disk_bytes_per_user_byte(self) -> float:
        disk = sum(path.stat().st_size for path in self.root.rglob("*") if path.is_file())
        events = self.catalog.get("events")
        user = self.row_bytes * events.num_live + 16 * CATEGORIES
        return disk / user

    def layer_experiments(self, seconds):
        """Split a commit: in memory only, disk apply only, + WAL, + every fsync.

        The same batches are committed against identical copies of the seed's
        dataset, one copy per variant (the bench_wal_overhead method).
        """
        base = self.root.with_name(f"{self.root.name}-base")
        self.save_dataset(base)
        batches = [
            [{"table": "events", "op": "append", "rows": event_rows(self.next_batch(0)[0])}]
            for _ in range(3 if self.smoke else 24)
        ]

        def commit_in_memory(catalog, ops):
            batch = catalog.begin_mutation()
            batch.insert("events", ops[0]["rows"])
            batch.commit()

        commit_ms = {}
        try:
            for variant in ("inmem", "apply", "nosync", "sync"):
                root = base.with_name(f"{base.name}-{variant}")
                shutil.copytree(base, root)
                controller = DurabilityController(root, sync=variant == "sync")
                if variant == "inmem":
                    commit_one = functools.partial(commit_in_memory, load_catalog(root))
                elif variant == "apply":
                    commit_one = functools.partial(apply_ops_to_saved_catalog, root, sync=False)
                else:
                    commit_one = controller.commit_ops
                samples = []
                for ops in batches:
                    started = now()
                    commit_one(ops)
                    samples.append((now() - started) * 1e3)
                commit_ms[variant] = median(samples)
                controller.reset_writer()
            wal_bytes = (root / WAL_NAME).stat().st_size  # the fsync variant ran last
        finally:
            for leftover in self.scratch.glob(f"{base.name}*"):
                shutil.rmtree(leftover, ignore_errors=True)
        return {
            "mutation.inmem_commit_ms": commit_ms["inmem"],
            "mutation.disk_apply_ms": commit_ms["apply"],
            "mutation.wal_bookkeeping_ms": commit_ms["nosync"] - commit_ms["apply"],
            "mutation.wal_fsync_ms": commit_ms["sync"] - commit_ms["nosync"],
            "mutation.wal_bytes_per_user_byte": wal_bytes
            / (self.row_bytes * self.append_rows * len(batches)),
            "mutation.conflict_retries": self.retries,
            "storage.disk_bytes_per_user_byte": self.disk_bytes_per_user_byte(),
        }


# --------------------------------------------------------------------------- #
# Large scans through the morsel driver and the shard pool
# --------------------------------------------------------------------------- #
class FactScan(Workload):
    name = "fact_scan"
    why = (
        "200k-row fact x dim disjunctive scans (rows, GROUP BY, ORDER BY-LIMIT) through the "
        "morsel driver, 4 morsels: per-morsel hash builds, merge, post-merge output shaping"
    )
    rows = 200_000
    smoke_rows = 3_000
    partitions = 4
    #: One thread drives the four morsels.  With two threads the latency of a
    #: run depends on whether the host's second vCPU was there for it (same
    #: code, same seed: 104-137 ms), which no bound could tell from a
    #: regression; the two-thread speed-up is measured per layer instead
    #: (``engine.morsel2_speedup_x``).
    service_options = {"parallelism": 1, "partitions": partitions}

    def build_catalog(self, rng):
        rows = self.smoke_rows if self.smoke else self.rows
        dims = rows // 20
        fact = Table(
            "fact",
            [
                Column("id", np.arange(rows)),
                Column("dim_id", rng.integers(0, dims, size=rows)),
                Column("g", rng.integers(0, 64, size=rows)),
                Column("v", rng.integers(0, 1000, size=rows)),
                Column("a", rng.random(rows)),
                Column("b", rng.random(rows)),
            ],
        )
        dim = Table("dim", [Column("id", np.arange(dims)), Column("w", rng.random(dims))])
        return Catalog([fact, dim])

    def build_statements(self, rng):
        tail = (
            "FROM fact AS f JOIN dim AS d ON f.dim_id = d.id "
            "WHERE (f.a < 0.3 AND d.w < 0.6) OR (f.b > 0.7 AND d.w > 0.2)"
        )
        return {
            "rows": f"SELECT f.id, f.a {tail}",
            "grouped": f"SELECT f.g, COUNT(*), SUM(f.v) {tail} GROUP BY f.g",
            "topk": f"SELECT f.id, f.a {tail} ORDER BY f.a LIMIT 100",
        }

    def paired_pass_seconds(self, seconds: float, base: dict, other: dict):
        """Median pass time under two execution settings, passes interleaved."""
        session = self.service.session
        plans = [session.prepare(sql, PLANNER) for sql in self.statements.values()]
        samples = {"base": [], "other": []}
        deadline = now() + seconds
        while not samples["base"] or now() < deadline:
            for side, options in (("base", base), ("other", other)):
                started = now()
                for plan in plans:
                    session.execute_prepared(plan, partitions=self.partitions, **options)
                samples[side].append(now() - started)
        return median(samples["base"]), median(samples["other"])

    def layer_experiments(self, seconds):
        serial, parallel = self.paired_pass_seconds(
            seconds, {"parallelism": 1}, {"parallelism": 2}
        )
        print(f"# morsel speedup bases: 1 thread {serial:.4f}, 2 threads {parallel:.4f} s/pass")
        return {"engine.morsel2_speedup_x": serial / parallel}


class FactScanShards(FactScan):
    name = "fact_scan_shards"
    why = (
        "the same scans through 2 shard worker processes: table shipping in set-up, "
        "scatter/gather and partial-aggregate folding in latency"
    )
    service_options = {"shards": 2, "partitions": FactScan.partitions, "parallelism": 1}

    def close(self):
        super().close()
        # A fresh pool per set-up: spin-up and table shipping belong to setup_s.
        shutdown_shard_pools()

    def layer_experiments(self, seconds):
        one, two = self.paired_pass_seconds(
            seconds, {"parallelism": 1, "shards": 1}, {"parallelism": 1, "shards": 2}
        )
        print(f"# shard speedup bases: in-process {one:.4f}, 2 shards {two:.4f} s/pass")
        shutdown_shard_pools()
        started = now()
        self.read("rows")
        first_ms = (now() - started) * 1e3
        return {"engine.shard2_speedup_x": one / two, "engine.shard_first_query_ms": first_ms}


WORKLOADS = {
    cls.name: cls for cls in (JobWarm, JobCold, LookupWarm, IngestServe, FactScan, FactScanShards)
}
