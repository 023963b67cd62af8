"""Runtime work counters, execution options and the per-query context.

The paper explains its speedups in terms of work avoided: predicate
subexpressions evaluated once instead of per root clause, tuples materialized
once instead of per clause, joins that touch only the slices named in their
tag maps, and no final union operator.  These counters measure exactly those
quantities so benchmarks can report them next to wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.storage.iostats import IOStats
from repro.storage.pagecache import LFUPageCache
from repro.utils.join import builds_on_left


@dataclass
class ExecutionMetrics:
    """Work counters accumulated while executing one query."""

    predicate_rows_evaluated: int = 0
    predicate_evaluations: int = 0
    residual_rows_evaluated: int = 0
    join_build_rows: int = 0
    join_probe_rows: int = 0
    join_output_rows: int = 0
    tuples_materialized: int = 0
    union_input_rows: int = 0
    union_output_rows: int = 0
    operators_executed: int = 0
    slices_created: int = 0
    hash_tables_built: int = 0
    output_rows: int = 0
    morsels_executed: int = 0
    #: Pages skipped by zone-map / index scan pruning, summed over scans
    #: (in units of one column's pages; a skipped page is never read, so it
    #: contributes to neither ``pages_read`` nor ``pages_hit`` of IOStats).
    pages_pruned: int = 0
    #: Morsels the parallel driver skipped because the partitioning alias
    #: had no candidate rows in their row range.
    partitions_skipped: int = 0
    #: Worker processes that executed partition blocks for this query under
    #: sharded execution (0 on the in-process path).  Counted only at the
    #: coordinator, so it is the one scalar that differs between a serial
    #: and a sharded run of the same partitioning — comparisons of merged
    #: counters should exclude it.
    shards_executed: int = 0
    #: Rows actually fed to base-predicate clause evaluations: each clause
    #: is charged only the rows still alive when it runs, so the figure is
    #: at most ``num_rows × clauses`` per predicate (what evaluating every
    #: clause over every row would cost).
    clause_rows_evaluated: int = 0
    #: Per-predicate observation counts: expression key -> [rows evaluated,
    #: rows matched].  Only populated when the execution context runs with
    #: ``collect_feedback`` (the observed ratio feeds re-optimization).
    predicate_counts: dict[str, list[int]] = field(default_factory=dict)
    #: Per-operator actual row counts: logical node id -> [rows in, rows out]
    #: (``--explain-analyze``); populated under ``collect_feedback`` only.
    operator_actuals: dict[int, list[int]] = field(default_factory=dict)
    #: Per-scan pruning outcome: logical node id -> [pages in range, pages
    #: pruned].  Recorded whenever a scan prunes (cheap: once per scan), so
    #: ``--explain-analyze`` can report pages pruned per operator.
    scan_pruning: dict[int, list[int]] = field(default_factory=dict)

    def record_predicate(self, key: str, evaluated: int, matched: int) -> None:
        """Accumulate one predicate evaluation's observed pass counts."""
        bucket = self.predicate_counts.setdefault(key, [0, 0])
        bucket[0] += evaluated
        bucket[1] += matched

    def record_operator(self, node_id: int, rows_in: int, rows_out: int) -> None:
        """Accumulate one operator invocation's actual rows in/out."""
        bucket = self.operator_actuals.setdefault(node_id, [0, 0])
        bucket[0] += rows_in
        bucket[1] += rows_out

    def record_scan_pruning(self, node_id: int | None, pages_total: int, pages_pruned: int) -> None:
        """Accumulate one scan invocation's page-pruning outcome."""
        self.pages_pruned += pages_pruned
        if node_id is not None:
            bucket = self.scan_pruning.setdefault(node_id, [0, 0])
            bucket[0] += pages_total
            bucket[1] += pages_pruned

    def record_hash_build(self, left_rows: int, right_rows: int) -> None:
        """Account one hash table: built over the side the join kernel builds.

        Give each side's rows with a non-NULL key: the kernel drops the others
        and picks its build side from these counts.
        """
        on_left = builds_on_left(left_rows, right_rows)
        self.hash_tables_built += 1
        self.join_build_rows += left_rows if on_left else right_rows
        self.join_probe_rows += right_rows if on_left else left_rows

    def merge(self, other: "ExecutionMetrics") -> None:
        """Accumulate another metrics object into this one."""
        self.predicate_rows_evaluated += other.predicate_rows_evaluated
        self.predicate_evaluations += other.predicate_evaluations
        self.residual_rows_evaluated += other.residual_rows_evaluated
        self.join_build_rows += other.join_build_rows
        self.join_probe_rows += other.join_probe_rows
        self.join_output_rows += other.join_output_rows
        self.tuples_materialized += other.tuples_materialized
        self.union_input_rows += other.union_input_rows
        self.union_output_rows += other.union_output_rows
        self.operators_executed += other.operators_executed
        self.slices_created += other.slices_created
        self.hash_tables_built += other.hash_tables_built
        self.output_rows += other.output_rows
        self.morsels_executed += other.morsels_executed
        self.pages_pruned += other.pages_pruned
        self.partitions_skipped += other.partitions_skipped
        self.shards_executed += other.shards_executed
        self.clause_rows_evaluated += other.clause_rows_evaluated
        for key, (evaluated, matched) in other.predicate_counts.items():
            self.record_predicate(key, evaluated, matched)
        for node_id, (rows_in, rows_out) in other.operator_actuals.items():
            self.record_operator(node_id, rows_in, rows_out)
        for node_id, (pages_total, pages_pruned) in other.scan_pruning.items():
            # The scalar total was already merged above; only the per-node
            # buckets accumulate here.
            bucket = self.scan_pruning.setdefault(node_id, [0, 0])
            bucket[0] += pages_total
            bucket[1] += pages_pruned

    def as_dict(self) -> dict[str, int]:
        """The scalar counters as a plain dictionary (for reports).

        The per-predicate and per-operator observation maps are exposed via
        :attr:`predicate_counts` / :attr:`operator_actuals` instead so the
        tabular reports stay scalar-valued.
        """
        return {
            "predicate_rows_evaluated": self.predicate_rows_evaluated,
            "predicate_evaluations": self.predicate_evaluations,
            "residual_rows_evaluated": self.residual_rows_evaluated,
            "join_build_rows": self.join_build_rows,
            "join_probe_rows": self.join_probe_rows,
            "join_output_rows": self.join_output_rows,
            "tuples_materialized": self.tuples_materialized,
            "union_input_rows": self.union_input_rows,
            "union_output_rows": self.union_output_rows,
            "operators_executed": self.operators_executed,
            "slices_created": self.slices_created,
            "hash_tables_built": self.hash_tables_built,
            "output_rows": self.output_rows,
            "morsels_executed": self.morsels_executed,
            "pages_pruned": self.pages_pruned,
            "partitions_skipped": self.partitions_skipped,
            "shards_executed": self.shards_executed,
            "clause_rows_evaluated": self.clause_rows_evaluated,
        }


def aggregate_metrics(metrics_iterable) -> ExecutionMetrics:
    """Sum a collection of :class:`ExecutionMetrics` into one.

    Batch front ends (the query service, the throughput benchmarks) report
    the total work performed across many queries; this folds the per-query
    counters into a single object without mutating any of the inputs.
    """
    total = ExecutionMetrics()
    for metrics in metrics_iterable:
        total.merge(metrics)
    return total


@dataclass(frozen=True)
class ExecOptions:
    """How a prepared plan is run: the single definition of the execution options.

    ``Session`` holds one instance as its defaults, ``QueryService`` resolves
    its own against it once, and the keyword spellings ``Session.execute`` /
    ``execute_prepared`` accept are per-call :meth:`replace` overrides.  No
    option changes the rows returned.

    Attributes:
        parallelism: morsel worker threads (1 = run morsels inline); the
            thread count *inside* each worker process when ``shards > 1``.
        partitions: row-range partitions of the largest scanned table, one
            morsel each; ``None`` means threads × shards.  For a
            fixed count the output is byte-identical at any worker or shard
            count; changing it may reorder rows (join output follows probe
            order), never the result set.
        shards: shared-nothing worker processes, each running a contiguous
            block of the partitions (:mod:`repro.engine.shard`); 1 = in-process.
        trace: attach a span tree to the result — ``True`` for a fresh
            :class:`~repro.obs.trace.Tracer`, or a tracer to nest under.
        collect_feedback: record per-predicate match counts and per-operator
            actual rows (``--explain-analyze``, the service feedback loop).
    """

    parallelism: int = 1
    partitions: int | None = None
    shards: int = 1
    trace: object = False
    collect_feedback: bool = False

    def __post_init__(self) -> None:
        for name in ("parallelism", "partitions", "shards"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")

    def replace(self, **overrides) -> "ExecOptions":
        """These options with every non-``None`` override applied (validated).

        Returns ``self`` when nothing changes, so resolving the options of a
        call that overrides none is a constant-time read.
        """
        current = vars(self)
        try:
            changes = {
                name: value
                for name, value in overrides.items()
                if current[name] != value and value is not None
            }
        except KeyError as unknown:
            raise TypeError(f"unknown execution option {unknown.args[0]!r}") from None
        return ExecOptions(**{**current, **changes}) if changes else self

    @property
    def num_partitions(self) -> int:
        """The effective partition count."""
        if self.partitions is not None:
            return self.partitions
        return self.parallelism * self.shards


@dataclass
class ExecContext:
    """State threaded through operators during one query execution.

    Under parallel execution each morsel runs against a private *forked*
    context (:meth:`fork`) and the driver reduces the children back into the
    parent (:meth:`absorb`) after all morsels finish.  Counters are therefore
    never incremented concurrently — only the page cache is shared, and it
    serializes its own accesses.
    """

    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    iostats: IOStats = field(default_factory=IOStats)
    cache: LFUPageCache = field(default_factory=LFUPageCache)
    #: When True, operators additionally record per-predicate match counts
    #: and per-operator actual row counts (the raw material of the feedback
    #: loop and of ``--explain-analyze``).  Off by default: the counting
    #: passes cost extra array reductions on the execution hot path.
    collect_feedback: bool = False
    #: Aliases whose scans were restricted by access-path pruning this
    #: execution.  Predicate observations touching them are *conditioned on
    #: the candidate set* (an index-pruned scan makes its own predicate look
    #: ~100% selective), so the feedback recorder skips them — the feedback
    #: loop then falls back to a-priori estimates for those clauses instead
    #: of learning biased ones.
    feedback_excluded_aliases: frozenset = frozenset()
    #: The executing plan's estimated selectivity per AND/OR child
    #: expression key (``PreparedPlan.clause_selectivities``); orders the
    #: fused evaluator's clause evaluation.  Empty for hand-built contexts:
    #: every clause then ties at the default and runs in canonical-key order.
    clause_selectivities: dict[str, float] = field(default_factory=dict)
    #: Set by the sharded scatter–gather coordinator when aggregation was
    #: pushed down to the shards and already combined: output shaping must
    #: then skip its aggregate step (DISTINCT / ORDER BY / LIMIT still run).
    #: Coordinator-level state — never set on forked children, never merged
    #: by :meth:`absorb`.
    aggregates_prefolded: bool = False
    #: Opt-in :class:`~repro.obs.trace.Tracer` collecting this execution's
    #: span tree and per-operator timings.  ``None`` (the default) keeps the
    #: hot path free of any timing work — operators and drivers test this
    #: field before touching the tracer.  Forked and absorbed alongside the
    #: counters so traces merge across morsel workers exactly like metrics.
    tracer: object | None = None

    def fork(self) -> "ExecContext":
        """A child context for one morsel: fresh counters, shared page cache."""
        return ExecContext(
            cache=self.cache,
            collect_feedback=self.collect_feedback,
            feedback_excluded_aliases=self.feedback_excluded_aliases,
            clause_selectivities=self.clause_selectivities,
            tracer=self.tracer.fork() if self.tracer is not None else None,
        )

    def absorb(self, child: "ExecContext") -> None:
        """Merge a forked child's counters back into this context."""
        self.metrics.merge(child.metrics)
        self.iostats.merge(child.iostats)
        if self.tracer is not None and child.tracer is not None:
            self.tracer.absorb(child.tracer)


class Stopwatch:
    """Tiny helper measuring elapsed wall-clock time."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start
