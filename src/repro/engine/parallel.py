"""The morsel-driven parallel execution driver.

A query's physical plan is compiled once per table partition ("morsel") of a
deterministically chosen partitioning alias; morsels execute on a worker
pool and their outputs are merged **in partition order**, so for a
fixed partition count the result is byte-identical at any worker count —
only scheduling changes with ``parallelism``, never the work or the merge
order.  ``partitions=1`` is exactly the legacy unpartitioned path.  The
*partition count* is part of the physical plan: changing it never changes
the result set (the differential suite checks every setting against the
oracle), but it may reorder rows — join output follows probe order, so a
partitioned build side groups output by build partition.

Determinism and correctness rest on three invariants:

* scan→filter→join pipelines are linear in each input, so restricting one
  alias's scan to a row range and unioning the per-range outputs equals the
  unpartitioned output (the partitioned alias sits on exactly one side of
  every join);
* each morsel runs against a *forked* execution context (private metrics and
  I/O counters, shared thread-safe page cache); the driver reduces children
  back into the query context in partition order after all morsels finish,
  so counters are merge-safe under concurrency;
* output shaping (aggregation / DISTINCT / ORDER BY / LIMIT) runs **after**
  the merge, exactly once, in :meth:`Session.execute_prepared`.

The partitioning alias is the scanned alias whose base table has the most
rows (ties broken by alias name) — a deterministic choice that sends the
largest scan through the morsel loop while smaller build sides are rebuilt
per morsel.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.metrics import ExecContext, ExecOptions
from repro.engine.result import OutputColumns
from repro.physical.compile import compile_plan, plan_scan_aliases
from repro.physical.operators import candidates_in_range
from repro.plan.logical import TableScanNode
from repro.storage.catalog import Catalog
from repro.storage.table import owned_page_range

# Morsel pools are shared process-wide, one per worker count (in practice a
# handful of distinct counts).  Creating a pool per query would spawn and
# join threads on the serving hot path; idle pool threads are reused by
# every subsequent query with that many workers.  shutdown_morsel_pools()
# (registered via atexit, also invoked by the shard workers' own exit path)
# tears them down; the registry repopulates lazily afterwards.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _morsel_pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-morsel-{workers}"
            )
            _POOLS[workers] = pool
        return pool


def shutdown_morsel_pools(wait: bool = True) -> None:
    """Shut down every process-wide morsel thread pool (re-created on use).

    The registry otherwise grows one never-collected pool per distinct
    worker count for the life of the process.  Registered via ``atexit``
    (alongside :func:`repro.engine.shard.shutdown_shard_pools`, which shard
    worker processes also call before exiting) and callable directly by
    embedders that want deterministic teardown.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_morsel_pools)


def choose_partition_alias(scans: dict[str, str], catalog: Catalog) -> str | None:
    """The alias whose scan the driver partitions (deterministic).

    Of a plan's ``scans`` (:func:`~repro.physical.compile.plan_scan_aliases`),
    picks the alias with the largest base table, breaking ties by alias
    name; returns ``None`` when the plan scans nothing.
    """
    if not scans:
        return None
    return max(
        sorted(scans),
        key=lambda alias: catalog.get(scans[alias]).num_rows,
    )


def _alias_scan_node_id(prepared, alias: str) -> int | None:
    """The logical node id of ``alias``'s scan, when it is unambiguous.

    A plan with several subplans scans every alias once *per subplan*, so
    per-node attribution of driver-skipped pages is ambiguous there (None
    keeps the accounting in the scalar ``pages_pruned`` counter only).
    """
    ids = [
        node.node_id
        for root in prepared.roots
        for node in root.walk()
        if isinstance(node, TableScanNode) and node.alias == alias
    ]
    return ids[0] if len(ids) == 1 else None


def run_morsels(
    prepared,
    catalog: Catalog,
    context: ExecContext,
    alias: str,
    partitions: list,
    scan_candidates: dict,
    parallelism: int,
) -> OutputColumns:
    """The morsel loop: one compiled tree per partition of ``alias``, merged in order.

    Each morsel runs against a forked context, inline or on the morsel
    thread pool; children and outputs are reduced **in partition order**, so
    counters are summed deterministically and the merged output is
    byte-identical at any worker count.  The in-process driver and every
    shard worker run exactly this loop.
    """
    morsels = [
        (partition, compile_plan(prepared, catalog, alias, partition, scan_candidates))
        for partition in partitions
    ]

    def run_morsel(partition, root) -> tuple[OutputColumns, ExecContext]:
        child = context.fork()
        if child.tracer is not None:
            with child.tracer.span(
                "morsel", start_row=partition.start, stop_row=partition.stop
            ):
                output = root.run(child)
        else:
            output = root.run(child)
        return output, child

    if parallelism == 1 or len(morsels) == 1:
        outcomes = [run_morsel(partition, root) for partition, root in morsels]
    else:
        pool = _morsel_pool(min(parallelism, len(morsels)))
        futures = [pool.submit(run_morsel, partition, root) for partition, root in morsels]
        outcomes = [future.result() for future in futures]

    outputs = []
    for output, child in outcomes:
        context.absorb(child)
        context.metrics.morsels_executed += 1
        outputs.append(output)
    return OutputColumns.merge(outputs)


def execute_plan(
    prepared, catalog: Catalog, context: ExecContext, options: ExecOptions
) -> OutputColumns:
    """Execute a prepared plan through the physical layer.

    Args:
        prepared: the :class:`~repro.engine.session.PreparedPlan`.  Its
            access plan (when present) is resolved here into candidate
            sets that restrict the scans (zone-map/index pruning) and let
            the driver skip morsels whose partition of the partitioning
            alias holds no candidate row — pruning never changes the rows
            returned, only the pages touched.  Its query lets sharded
            execution push exactly-mergeable aggregation (or a LIMIT) down
            to the shards, flagging ``context.aggregates_prefolded`` so
            output shaping skips the already-folded step.
        catalog: base tables (the plan's pinned snapshot).
        context: the query's execution context; per-morsel forks are reduced
            into it before returning.
        options: how to run.  One partition (or a plan that scans nothing)
            bypasses the morsel loop entirely; ``shards > 1`` scatters the
            partitions over worker processes (:mod:`repro.engine.shard`).
    """
    access_plan = prepared.access_plan
    if access_plan is not None:
        if context.tracer is not None:
            with context.tracer.span("access_paths.resolve"):
                scan_candidates = access_plan.resolve_all()
        else:
            scan_candidates = access_plan.resolve_all()
    else:
        scan_candidates = {}
    if scan_candidates and context.collect_feedback:
        # Predicate observations over pruned aliases are conditioned on the
        # candidate set and must not feed the selectivity feedback loop.
        context.feedback_excluded_aliases = frozenset(scan_candidates)

    num_partitions = options.num_partitions
    scans = plan_scan_aliases(prepared) if num_partitions > 1 else {}
    alias = choose_partition_alias(scans, catalog)
    if alias is None:
        root = compile_plan(prepared, catalog, scan_candidates=scan_candidates)
        context.metrics.morsels_executed += 1
        return root.run(context)

    table = catalog.get(scans[alias])
    all_partitions = table.partitions(num_partitions)
    alias_candidates = scan_candidates.get(alias)
    if alias_candidates is not None:
        # A morsel whose slice of the partitioning alias holds no candidate
        # row contributes nothing to the output; skip compiling and running
        # it.  Keep at least one morsel so the root still emits its (empty)
        # output structure.
        live = [
            partition
            for partition in all_partitions
            if candidates_in_range(alias_candidates, partition.start, partition.stop).size
        ]
        if not live:
            live = all_partitions[:1]
        page_size = table.page_size
        scan_node_id = _alias_scan_node_id(prepared, alias)
        for partition in all_partitions:
            if partition in live:
                continue
            # Every page owned by a skipped morsel is pruned; record it
            # here (against the scan's node when unambiguous) since no scan
            # operator runs for the morsel.
            first_page, end_page = owned_page_range(
                partition.start, partition.stop, page_size
            )
            if end_page > first_page:
                pages = end_page - first_page
                context.metrics.record_scan_pruning(scan_node_id, pages, pages)
        context.metrics.partitions_skipped += len(all_partitions) - len(live)
        all_partitions = live

    if options.shards > 1 and len(all_partitions) > 1:
        # Scatter the live partitions across worker processes as contiguous
        # blocks; the shard-order gather is the partition-order merge, so
        # the result is byte-identical to the in-process path below.  All
        # pruning accounting already happened above, at the coordinator.
        from repro.engine.shard import scatter_gather

        return scatter_gather(
            prepared, catalog, context, scan_candidates, alias, all_partitions, options
        )
    return run_morsels(
        prepared, catalog, context, alias, all_partitions, scan_candidates, options.parallelism
    )
