"""Shared-nothing multi-process sharded execution (scatter–gather).

The morsel driver (:mod:`repro.engine.parallel`) parallelizes with Python
threads, so CPU-bound predicate and join work serializes on the GIL.  This
module adds the process tier behind the ``shards=N`` knob: the coordinator
splits the partitioning alias's partitions into **contiguous blocks** (one
per shard, ``np.array_split`` geometry), ships each block to a worker
*process* together with everything needed to re-create the physical plan —
the prepared plan (minus its process-local state) and the resolved
scan-candidate sets (sorted row positions) — and gathers the per-shard
outputs back **in shard order**.

Because shard blocks are contiguous in partition order, gathering in shard
order *is* the partition-order merge: for a fixed partition count the result
is byte-identical to serial execution at any shard count (the differential
suite checks every combination against the oracle).  ``shards=1`` never
enters this module — it is exactly the in-process path.

Design notes:

* **Shared-nothing workers.**  A worker never sees the coordinator's
  :class:`~repro.storage.catalog.Catalog` (whose write lock and durability
  controller are process-local and unpicklable).  It receives the scanned
  base tables — immutable objects — and wraps them in a read-only
  :class:`~repro.mutation.snapshot.CatalogSnapshot` pinned at the
  coordinator's snapshot version.  No WAL writer, no mutation path: the
  durability invariants of the mutation subsystem are untouched.
* **Table shipping is cached.**  Immutable tables are stamped with a ship
  token on first use; each pool worker remembers which tokens it holds (an
  LRU bounded by :data:`WORKER_TABLE_CACHE_LIMIT`), so steady-state queries
  ship only partition geometry, not gigabytes of columns.  Object identity
  implies data identity because mutation commits register *new* table
  objects.
* **Metrics travel with results.**  Each worker runs its morsels against
  forked :class:`~repro.engine.metrics.ExecContext` children (exactly like
  the in-process driver) and returns the merged counters; the coordinator
  absorbs them through the same fork/absorb path, so ``--explain-analyze``,
  the feedback loop and all work counters keep working.  Page-cache
  hit/miss splits legitimately differ (each shard has a private cache) but
  the *total* page accesses, values read and every work counter match
  serial execution at the same partition count.
* **Aggregation/LIMIT pushdown.**  When every aggregate is exactly
  mergeable (:mod:`repro.engine.partial_agg`) workers pre-aggregate and the
  coordinator combines partial states; LIMIT queries (with or without
  ORDER BY, never DISTINCT) return only each shard's candidates for the
  first ``LIMIT`` rows (:func:`~repro.engine.postprocess.limit_candidates`).
  Both transfers shrink without changing a byte of output.

The worker pool is process-wide, keyed by shard count (like the morsel
thread pools), guarded for exclusive use per query, and torn down by
:func:`shutdown_shard_pools` — registered via ``atexit`` alongside
:func:`repro.engine.parallel.shutdown_morsel_pools`.

The start method defaults to ``forkserver`` when available (``spawn``
otherwise): forking from the single-threaded server process sidesteps the
fork-while-multithreaded hazard that morsel/service thread pools would pose.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import traceback
from dataclasses import dataclass

from repro.engine.metrics import ExecContext, ExecOptions
from repro.engine.partial_agg import (
    aggregation_pushdown_supported,
    combine_partial_aggregates,
    partial_aggregate,
)
from repro.engine.postprocess import limit_candidates
from repro.engine.result import OutputColumns
from repro.physical.compile import plan_scan_aliases
from repro.storage.table import TablePartition

#: Most-recently-used tables each worker process keeps cached between
#: queries.  Bounded so long-lived pools serving many catalogs cannot grow
#: without limit; evictions are reported back so the coordinator re-ships.
WORKER_TABLE_CACHE_LIMIT = 32


class ShardExecutionError(RuntimeError):
    """A worker process failed while executing its shard (traceback attached)."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to re-create and run the physical plan.

    Attributes:
        prepared: the plan, as :meth:`PreparedPlan.shippable()
            <repro.engine.session.PreparedPlan.shippable>` leaves it —
            everything *except* process-local state (the snapshot's tables
            ship separately, once; access paths are resolved at the
            coordinator and only the candidate sets below ship).
        collect_feedback: record per-predicate/per-operator observations.
        feedback_excluded_aliases: aliases whose observations are biased by
            candidate pruning (see :class:`~repro.engine.metrics.ExecContext`).
        scan_candidates: alias -> candidate row positions, resolved at the
            coordinator from the access-path layer.
        partition_alias: the alias whose scan is partitioned.
        parallelism: morsel threads *inside* each worker process.
        snapshot_version: catalog version the read is pinned at.
        table_versions: per-table version pins of the shipped tables.
        push_mode: ``"none"`` | ``"aggregate"`` | ``"limit"`` pushdown.
        trace: when True the worker runs under a private
            :class:`~repro.obs.trace.Tracer` and ships the span tree back as
            plain data; the coordinator re-anchors it into the query trace.
            Never changes rows, metrics, or IO accounting.
    """

    prepared: object
    collect_feedback: bool
    feedback_excluded_aliases: frozenset
    scan_candidates: dict
    partition_alias: str
    parallelism: int
    snapshot_version: int
    table_versions: dict
    push_mode: str = "none"
    trace: bool = False


@dataclass(frozen=True)
class ShardTask:
    """One worker's assignment: the spec plus its contiguous partition block.

    Attributes:
        spec: the shared :class:`ShardSpec`.
        ranges: ``(index, start, stop)`` per partition, ascending — the
            worker re-creates :class:`~repro.storage.table.TablePartition`
            objects from the shipped base table.
    """

    spec: ShardSpec
    ranges: tuple


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
def _run_task(task: ShardTask, tables: dict) -> tuple:
    """Execute one shard's partition block.

    Returns ``(payload, metrics, iostats, trace_payload)`` where
    ``trace_payload`` is the shipped span tree (plain data) when the spec
    asked for tracing, else ``None``.
    """
    from repro.engine.parallel import run_morsels
    from repro.mutation.snapshot import CatalogSnapshot

    spec = task.spec
    prepared = spec.prepared
    catalog = CatalogSnapshot(
        version=spec.snapshot_version,
        tables=tables,
        table_versions=dict(spec.table_versions),
    )
    tracer = None
    if spec.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    context = ExecContext(
        collect_feedback=spec.collect_feedback,
        feedback_excluded_aliases=spec.feedback_excluded_aliases,
        clause_selectivities=prepared.clause_selectivities,
        tracer=tracer,
    )
    alias = spec.partition_alias
    base_table = tables[plan_scan_aliases(prepared)[alias]]
    partitions = [
        TablePartition(table=base_table, index=index, start=start, stop=stop)
        for index, start, stop in task.ranges
    ]
    if tracer is not None:
        tracer.begin("shard", pid=os.getpid(), partitions=len(partitions))
    merged = run_morsels(
        prepared, catalog, context, alias, partitions, spec.scan_candidates, spec.parallelism
    )
    if tracer is not None:
        tracer.end(
            pages_read=context.iostats.pages_read,
            morsels=context.metrics.morsels_executed,
        )

    if spec.push_mode == "aggregate":
        payload = ("partial", partial_aggregate(merged, prepared.query))
    elif spec.push_mode == "limit":
        payload = ("rows", limit_candidates(merged, prepared.query))
    else:
        payload = ("rows", merged)
    trace_payload = tracer.to_payload() if tracer is not None else None
    return payload, context.metrics, context.iostats, trace_payload


def _worker_main(connection) -> None:
    """Worker-process loop: receive tasks, cache tables, ship results back.

    Protocol (coordinator -> worker): ``("exec", task, tables_payload)``
    where ``tables_payload`` maps table name to ``(token, table_or_None)``
    (None = use the cached copy), or ``None`` for graceful shutdown.
    Worker -> coordinator:
    ``("ok", payload, metrics, iostats, evicted, trace_payload)`` or
    ``("error", formatted_traceback)``.
    """
    from repro.engine.parallel import shutdown_morsel_pools

    cache: dict[int, object] = {}
    try:
        _worker_loop(connection, cache)
    finally:
        # The worker's own intra-shard morsel threads: tear them down through
        # the same helper the coordinator's atexit hook uses.
        shutdown_morsel_pools(wait=False)


def _worker_loop(connection, cache: dict) -> None:
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        try:
            _command, task, tables_payload = message
            tables = {}
            in_use = set()
            for name, (token, table) in tables_payload.items():
                if table is None:
                    table = cache[token]
                cache.pop(token, None)
                cache[token] = table  # (re-)insert at LRU tail
                tables[name] = table
                in_use.add(token)
            evicted = []
            for token in list(cache):
                if len(cache) <= WORKER_TABLE_CACHE_LIMIT:
                    break
                if token in in_use:
                    continue
                del cache[token]
                evicted.append(token)
            payload, metrics, iostats, trace_payload = _run_task(task, tables)
            connection.send(
                ("ok", payload, metrics, iostats, tuple(evicted), trace_payload)
            )
        except BaseException:  # noqa: BLE001 - shipped back as a traceback
            try:
                connection.send(("error", traceback.format_exc()))
            except (OSError, ValueError):
                return


# --------------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------------- #
def _start_method() -> str:
    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return "spawn"


#: Stamps immutable tables with a process-unique ship token on first use.
_TOKEN_ATTR = "_shard_ship_token"
_TOKENS = itertools.count(1)
_TOKEN_LOCK = threading.Lock()


def _table_token(table) -> int:
    token = getattr(table, _TOKEN_ATTR, None)
    if token is None:
        with _TOKEN_LOCK:
            token = getattr(table, _TOKEN_ATTR, None)
            if token is None:
                token = next(_TOKENS)
                setattr(table, _TOKEN_ATTR, token)
    return token


class _ShardWorker:
    """One pool slot: the process, its pipe, and the tokens it caches."""

    __slots__ = ("process", "connection", "shipped")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        self.shipped: set[int] = set()


class ShardPool:
    """A fixed-size pool of shard worker processes with cached table shipping.

    ``run`` is serialized by a lock: one scatter–gather at a time per pool
    (concurrent queries at the same shard count queue; inter-query
    concurrency composes with the service layer's thread pool unchanged,
    results are the same either way).
    """

    def __init__(self, shards: int) -> None:
        if shards < 2:
            raise ValueError(f"a shard pool needs at least 2 workers, got {shards}")
        self.shards = shards
        context = multiprocessing.get_context(_start_method())
        self._workers: list[_ShardWorker] = []
        self._lock = threading.Lock()
        self._closed = False
        try:
            for index in range(shards):
                parent, child = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child,),
                    name=f"repro-shard-{shards}-{index}",
                    daemon=True,
                )
                process.start()
                child.close()
                self._workers.append(_ShardWorker(process, parent))
        except BaseException:
            self._close_locked()
            raise

    def run(self, spec: ShardSpec, tables: dict, assignments: list):
        """Scatter one task per assignment block; gather results in order.

        Returns ``[(payload, metrics, iostats, trace_payload), ...]`` in
        shard (= partition) order.  A query error inside a worker raises
        :class:`ShardExecutionError` with the worker traceback and leaves the
        pool usable; a transport failure tears the pool down (a fresh pool is
        created on the next sharded query).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("shard pool is closed")
            used = self._workers[: len(assignments)]
            try:
                sent_tokens: list[list[int]] = []
                for worker, ranges in zip(used, assignments):
                    payload = {}
                    tokens = []
                    for name, table in tables.items():
                        token = _table_token(table)
                        shipped = None if token in worker.shipped else table
                        payload[name] = (token, shipped)
                        tokens.append(token)
                    task = ShardTask(spec=spec, ranges=tuple(ranges))
                    worker.connection.send(("exec", task, payload))
                    sent_tokens.append(tokens)

                results = []
                error: ShardExecutionError | None = None
                for worker, tokens in zip(used, sent_tokens):
                    reply = worker.connection.recv()
                    if reply[0] == "error":
                        if error is None:
                            error = ShardExecutionError(
                                f"shard worker failed:\n{reply[1]}"
                            )
                        continue
                    _tag, payload, metrics, iostats, evicted, trace_payload = reply
                    worker.shipped.update(tokens)
                    worker.shipped.difference_update(evicted)
                    results.append((payload, metrics, iostats, trace_payload))
                if error is not None:
                    raise error
                return results
            except ShardExecutionError:
                raise
            except BaseException:
                # Transport-level failure (dead worker, broken pipe): the
                # pool's pipes may hold stale state — discard it entirely.
                self._close_locked()
                _discard_pool(self)
                raise

    def shutdown(self) -> None:
        """Terminate every worker (idempotent)."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.connection.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            try:
                worker.connection.close()
            except (OSError, ValueError):
                pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)


# Shard pools are shared process-wide, one per shard count, mirroring the
# morsel thread pools — worker processes are expensive to start (a fresh
# interpreter imports the engine), so serving reuses them across queries.
_SHARD_POOLS: dict[int, ShardPool] = {}
_SHARD_POOLS_LOCK = threading.Lock()


def shard_pool(shards: int) -> ShardPool:
    """The process-wide pool for ``shards`` workers (created on first use)."""
    with _SHARD_POOLS_LOCK:
        pool = _SHARD_POOLS.get(shards)
        if pool is None:
            pool = ShardPool(shards)
            _SHARD_POOLS[shards] = pool
        return pool


def _discard_pool(pool: ShardPool) -> None:
    with _SHARD_POOLS_LOCK:
        if _SHARD_POOLS.get(pool.shards) is pool:
            del _SHARD_POOLS[pool.shards]


def shutdown_shard_pools() -> None:
    """Shut down every process-wide shard pool (re-created on next use).

    Registered via ``atexit`` together with
    :func:`repro.engine.parallel.shutdown_morsel_pools`, so worker processes
    never outlive (or leak from) the coordinator.
    """
    with _SHARD_POOLS_LOCK:
        pools = list(_SHARD_POOLS.values())
        _SHARD_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shard_pools)


# --------------------------------------------------------------------------- #
# Coordinator entry point
# --------------------------------------------------------------------------- #
def scatter_gather(
    prepared,
    catalog,
    context: ExecContext,
    scan_candidates: dict,
    alias: str,
    partitions: list,
    options: ExecOptions,
) -> OutputColumns:
    """Execute ``partitions`` across shard workers; gather in partition order.

    Called by :func:`repro.engine.parallel.execute_plan` once partition
    pruning has run — only live partitions are shipped, so the coordinator
    keeps all pruning accounting.  Per-shard metrics/IO counters are merged
    back through the context's fork/absorb; when aggregation was pushed
    down, ``context.aggregates_prefolded`` is set so output shaping skips the
    (already folded) aggregate step.
    """
    query = prepared.query
    tables = {
        name: catalog.get(name)
        for name in sorted(set(plan_scan_aliases(prepared).values()))
    }

    push_mode = "none"
    if query.aggregates:
        if aggregation_pushdown_supported(query, catalog):
            push_mode = "aggregate"
    elif query.limit is not None and not query.distinct:
        push_mode = "limit"

    spec = ShardSpec(
        prepared=prepared.shippable(),
        collect_feedback=context.collect_feedback,
        feedback_excluded_aliases=context.feedback_excluded_aliases,
        scan_candidates=scan_candidates,
        partition_alias=alias,
        parallelism=options.parallelism,
        snapshot_version=catalog.version,
        table_versions={
            name: catalog.table_version(name) for name in tables
        },
        push_mode=push_mode,
        trace=context.tracer is not None,
    )

    # Contiguous blocks in partition order (np.array_split geometry): the
    # shard-order gather below therefore *is* the partition-order merge.
    count = min(options.shards, len(partitions))
    base, extra = divmod(len(partitions), count)
    assignments = []
    cursor = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        block = partitions[cursor : cursor + size]
        cursor += size
        assignments.append(
            [(partition.index, partition.start, partition.stop) for partition in block]
        )

    tracer = context.tracer
    if tracer is not None:
        tracer.begin(
            "shard.scatter_gather", shards=count, push_mode=push_mode
        )
    try:
        results = shard_pool(options.shards).run(spec, tables, assignments)
    except BaseException:
        if tracer is not None:
            tracer.end(error=True)
        raise

    outputs = []
    partials = []
    for payload, metrics, iostats, trace_payload in results:
        child = context.fork()
        child.metrics = metrics
        child.iostats = iostats
        context.absorb(child)
        if tracer is not None and trace_payload is not None:
            # Worker clocks have their own perf_counter origin; absorb
            # re-anchors the shipped spans under the scatter-gather span
            # (durations exact, cross-process offsets approximate).
            tracer.absorb_payload(trace_payload)
        if payload[0] == "partial":
            partials.append(payload[1])
        else:
            outputs.append(payload[1])
    context.metrics.shards_executed += len(results)
    if tracer is not None:
        tracer.end()

    if push_mode == "aggregate":
        context.aggregates_prefolded = True
        return combine_partial_aggregates(partials, query)
    # "limit" payloads are per-block candidates; the caller's ordinary output
    # shaping of their concatenation equals shaping every row.
    return OutputColumns.merge(outputs)
