"""The query service: cached planning and concurrent batch execution.

:class:`QueryService` is the front end a long-running deployment talks to.
It wraps a :class:`~repro.engine.session.Session` and adds the three things
``Session.execute`` deliberately does not have:

1. a **plan cache** — repeated queries skip parsing, statistics collection
   and planning entirely (see :mod:`repro.service.plan_cache`);
2. a **stats cache** — even novel queries reuse per-table statistics and
   selectivity samples (see :mod:`repro.service.stats_cache`);
3. a **batch executor** — a thread pool runs many queries concurrently with
   a per-query timeout, returning structured per-query outcomes;
4. optionally, a **feedback loop** (``feedback=True``) — executions record
   observed per-clause selectivities and output cardinality, and when a
   cached plan's q-error exceeds ``qerror_threshold`` the service retires
   that one cache entry and re-plans with the observed selectivities
   injected through the estimate provider (see :mod:`repro.optimizer`).

Results are identical to serial ``Session.execute`` calls: planning and
statistics are deterministic, prepared plans are immutable during execution,
and every execution gets its own private metrics/IO context.  The feedback
loop never changes the rows a query returns — only which (equivalent) plan
serves it.

Example::

    from repro import QueryService, Session
    from repro.workloads.imdb import generate_imdb_catalog

    service = QueryService(Session(generate_imdb_catalog(scale=0.05, seed=7)))
    batch = service.execute_batch([SQL_1, SQL_2, SQL_1], planner="tcombined")
    for item in batch:
        print(item.index, item.ok, item.result.row_count if item.ok else item.error)
    print(service.plan_cache.stats.as_dict())
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, field

from repro.engine.metrics import ExecutionMetrics, Stopwatch, aggregate_metrics
from repro.engine.result import QueryResult
from repro.engine.session import PreparedPlan, Session
from repro.obs import history as obs_history
from repro.obs import instruments
from repro.obs.history import WorkloadHistory, plan_hash_of
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord
from repro.optimizer.feedback import DEFAULT_QERROR_THRESHOLD, FeedbackStore
from repro.plan.query import Query
from repro.service.fingerprint import query_fingerprint
from repro.service.plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from repro.service.stats_cache import StatsCache
from repro.storage.catalog import Catalog

#: Default number of worker threads used by batch execution.
DEFAULT_MAX_WORKERS = 4


@dataclass
class BatchItem:
    """The structured outcome of one query inside a batch.

    Exactly one of three shapes:

    * success — ``result`` holds the :class:`QueryResult`;
    * failure — ``error`` holds the exception text;
    * timeout — ``timed_out`` is True (the worker thread finishes in the
      background, but its outcome is discarded; the engine is pure Python
      and cannot interrupt an in-flight query).
    """

    index: int
    query: Query | str
    planner: str
    result: QueryResult | None = None
    error: str | None = None
    timed_out: bool = False
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the query produced a result."""
        return self.result is not None and not self.timed_out


@dataclass
class BatchReport:
    """All outcomes of one batch, plus aggregates for reporting."""

    items: list[BatchItem] = field(default_factory=list)
    wall_seconds: float = 0.0

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> BatchItem:
        return self.items[index]

    @property
    def succeeded(self) -> list[BatchItem]:
        """Items that produced a result."""
        return [item for item in self.items if item.ok]

    @property
    def failed(self) -> list[BatchItem]:
        """Items that raised (excluding timeouts)."""
        return [item for item in self.items if item.error is not None]

    @property
    def timed_out(self) -> list[BatchItem]:
        """Items whose wait exceeded the per-query timeout."""
        return [item for item in self.items if item.timed_out]

    @property
    def queries_per_second(self) -> float:
        """Completed queries divided by batch wall-clock time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.succeeded) / self.wall_seconds

    def total_metrics(self) -> ExecutionMetrics:
        """Engine work counters summed across all successful queries."""
        return aggregate_metrics(item.result.metrics for item in self.succeeded)


class QueryService:
    """Serves queries with plan/stats caching and concurrent batch execution.

    Args:
        session: the session to serve from; a bare :class:`Catalog` is also
            accepted and wrapped in a default session.  When the session has
            no ``stats_provider`` yet, the service installs its own
            :class:`StatsCache` (shared by cached and uncached paths alike).
        plan_cache_size: LRU capacity of the plan cache.
        max_workers: worker threads used by :meth:`execute_batch`.
        default_timeout: per-query timeout in seconds applied when a batch
            does not specify one (``None`` waits indefinitely).
        feedback: enable the runtime feedback loop — executions record
            observed per-clause selectivities (into :attr:`feedback_store`),
            and cached plans whose estimated-vs-actual output cardinality
            drifts beyond ``qerror_threshold`` are invalidated and re-planned
            with the observed selectivities.  Off by default (observation
            adds counting passes to the execution hot path).
        qerror_threshold: q-error (``max(est/act, act/est)`` of output rows)
            above which a cached plan is considered drifted.
        slow_query_log: a :class:`~repro.obs.slowlog.SlowQueryLog` — every
            query whose end-to-end latency (cache lookup / planning plus
            execution) meets its threshold emits a structured
            :class:`~repro.obs.slowlog.SlowQueryRecord` into its ring and to
            its sink (e.g. a :class:`~repro.obs.slowlog.RotatingFileSink`).
            ``None`` (the default) disables the log entirely.
        history: a :class:`~repro.obs.history.WorkloadHistory` to feed with
            every execution served here (per-fingerprint statistics, the
            event journal, regression detection).  ``None`` falls back to
            the process-ambient history installed with
            :func:`repro.obs.history.set_history` (and records nothing when
            that is absent).  History recording happens once, coordinator-
            side, after per-worker metrics have merged — results and IO
            accounting are byte-identical with history on or off.
        **overrides: :class:`~repro.engine.metrics.ExecOptions` fields
            (``parallelism=``, ``partitions=``, ``shards=``) for queries
            served *through this service*, resolved once against the
            session's options into :attr:`options`; the wrapped session is
            never mutated.  Inter-query concurrency (``max_workers``)
            composes with all of them, and none is part of a plan-cache
            fingerprint — they never change plans or rows.  (A shard pool
            serializes scatter–gathers, so concurrent batch queries at the
            same shard count queue on it.)
    """

    def __init__(
        self,
        session: Session | Catalog,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        max_workers: int = DEFAULT_MAX_WORKERS,
        default_timeout: float | None = None,
        feedback: bool = False,
        qerror_threshold: float = DEFAULT_QERROR_THRESHOLD,
        slow_query_log: SlowQueryLog | None = None,
        history: WorkloadHistory | None = None,
        **overrides,
    ) -> None:
        if isinstance(session, Catalog):
            session = Session(session)
        self.session = session
        self.history = history
        self.slow_query_log = slow_query_log
        self.options = session.options.replace(
            **{"collect_feedback": feedback, **overrides}
        )
        if self.session.stats_provider is None:
            self.session.stats_provider = StatsCache(self.session.catalog)
        self.stats_cache = self.session.stats_provider
        self.plan_cache = PlanCache(plan_cache_size)
        # Re-plan hook: a drift invalidation (feedback loop retiring one
        # entry) is the event the workload history calls a "re-plan".
        self.plan_cache.on_replan = self._record_replan
        self.feedback = feedback
        self.qerror_threshold = qerror_threshold
        self.feedback_store = FeedbackStore()
        self.default_timeout = default_timeout
        # Incremental cache maintenance on mutation commits (repro.mutation):
        # stats are extended by delta, exactly the plans/observations reading
        # a mutated table are retired, everything else stays warm.  The
        # subscription holds only a weak reference — a service abandoned
        # without close() stays garbage-collectable, never does maintenance
        # work as a zombie, and the finalizer removes its callback from the
        # catalog's subscriber list when it is collected.
        weak_self = weakref.ref(self)

        def _notify_weak(commit, _ref=weak_self):
            service = _ref()
            if service is not None:
                service._on_mutation(commit)

        self._mutation_callback = _notify_weak
        self.session.catalog.subscribe_mutations(self._mutation_callback)
        self._unsubscribe = weakref.finalize(
            self, self.session.catalog.unsubscribe_mutations, self._mutation_callback
        )
        self._max_workers = max(1, max_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Single-flight planning: concurrent requests for the same
        # fingerprint wait on one prepare instead of planning redundantly.
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Single-query path
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query | str,
        planner: str = "tcombined",
        naive_tags: bool | None = None,
        trace=False,
    ) -> QueryResult:
        """Execute one query, reusing a cached plan when available.

        ``naive_tags`` overrides that field of the session's
        :class:`~repro.core.planner.base.PlanOptions` for this call (and is,
        like every planning option, part of the plan-cache key).

        ``trace`` opts the execution into structured tracing exactly as in
        :meth:`Session.execute_prepared` — the result carries the span tree.
        Independently of tracing, every execution publishes into the global
        metrics registry (query latency histogram, plan-cache hits/misses,
        page/pruning counters) and is held against the slow-query threshold
        when one is configured.
        """
        planner = planner.lower()
        query = self._bind(query)
        wall_timer = Stopwatch()
        lookup_timer = Stopwatch()
        key = self._fingerprint(query, planner, naive_tags)
        try:
            prepared, reused = self._prepared_for(key, query, planner, naive_tags)
            instruments.publish_plan_cache(hit=reused)
            result = self.session.execute_prepared(
                prepared,
                planning_seconds=lookup_timer.elapsed() if reused else None,
                cache_hit=reused,
                **vars(self.options.replace(trace=trace or None)),
            )
        except Exception as error:
            history = self._history()
            if history is not None:
                history.record_error(key, planner, f"{type(error).__name__}: {error}")
            raise
        if self.feedback:
            self._observe(key, prepared, result)
        self._publish(result, wall_timer.elapsed(), key=key)
        return result

    def _history(self) -> WorkloadHistory | None:
        """The history this service feeds: explicit, else process-ambient."""
        return self.history if self.history is not None else obs_history.get_history()

    def _record_replan(self, key: str) -> None:
        """Plan-cache hook: one drifted entry was retired for re-planning."""
        history = self._history()
        if history is not None:
            history.record_replan(key)

    def _publish(self, result: QueryResult, elapsed_seconds: float, key: str) -> None:
        """Feed one finished execution into the registry, slow log and history.

        This is the single coordinator-side publish point: per-morsel and
        per-shard counters have already merged into ``result`` through the
        engine's fork/absorb, so each query lands in the stats store and the
        journal exactly once at any worker or shard count.
        """
        instruments.publish_query(
            seconds=elapsed_seconds,
            rows=result.row_count,
            pages_read=result.iostats.pages_read,
            pages_pruned=result.metrics.pages_pruned,
            morsels=result.metrics.morsels_executed,
            shard_tasks=result.metrics.shards_executed,
        )
        slow_record = None
        log = self.slow_query_log
        if log is not None and elapsed_seconds >= log.threshold_seconds:
            slow_record = SlowQueryRecord(
                fingerprint=key,
                planner=result.planner_name,
                elapsed_seconds=elapsed_seconds,
                planning_seconds=result.planning_seconds,
                execution_seconds=result.execution_seconds,
                rows=result.row_count,
                pages_read=result.iostats.pages_read,
                pages_pruned=result.metrics.pages_pruned,
                cache_hit=result.cache_hit,
                shards=self.options.shards,
            )
            log.observe(slow_record)
        history = self._history()
        if history is not None:
            trace = result.trace.to_dict() if result.trace is not None else None
            history.record_query(
                fingerprint=key,
                planner=result.planner_name,
                seconds=elapsed_seconds,
                execution_seconds=result.execution_seconds,
                rows=result.row_count,
                pages_read=result.iostats.pages_read,
                pages_pruned=result.metrics.pages_pruned,
                cache_hit=result.cache_hit,
                plan_hash=plan_hash_of(result.plan_description),
                trace=trace,
            )
            if slow_record is not None:
                history.record_slow_query(slow_record)

    def _prepared_for(self, key: str, query, planner: str, naive_tags: bool | None):
        """The prepared plan for ``key``: cached, awaited, or freshly planned.

        Returns ``(prepared, reused)`` where ``reused`` is True when this
        call did not plan itself (cache hit, or another thread's in-flight
        prepare was awaited).  With feedback enabled, fresh planning injects
        the fingerprint's accumulated observed selectivities — this is the
        re-optimization half of the feedback loop (the first plan for a
        never-observed query gets an empty override set and is identical to
        planning without feedback).
        """
        prepared = self.plan_cache.get(key)
        if prepared is not None:
            return prepared, True
        with self._inflight_lock:
            pending = self._inflight.get(key)
            owner = pending is None
            if owner:
                pending = Future()
                self._inflight[key] = pending
        if not owner:
            return pending.result(), True
        try:
            overrides = (
                self.feedback_store.observed_selectivities(key)
                if self.feedback
                else None
            )
            prepared = self.session.prepare(
                query, planner, naive_tags, selectivity_overrides=overrides
            )
            self.plan_cache.put(key, prepared)
            if self.feedback:
                self.feedback_store.mark_applied(key, overrides or {})
            pending.set_result(prepared)
            return prepared, False
        except BaseException as error:
            pending.set_exception(error)
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)

    def _observe(self, key: str, prepared: PreparedPlan, result: QueryResult) -> None:
        """Fold one execution's observations in; retire the plan on drift.

        The observed output cardinality is the projection operators' count
        *before* output shaping, which is what ``estimated_output_rows``
        estimates.  Invalidating only ``key`` keeps every other cached plan
        warm; the next request for this fingerprint re-plans with the
        accumulated observed selectivities.
        """
        self.feedback_store.record(
            key,
            result.metrics,
            prepared.estimated_output_rows,
            result.metrics.output_rows,
            tables=set(prepared.query.tables.values()),
        )
        if self.feedback_store.should_replan(key, self.qerror_threshold):
            self.plan_cache.invalidate_entry(key)
        stats = self.feedback_store.stats
        instruments.publish_feedback(stats.observations, stats.replans)

    def warm(
        self,
        queries,
        planner: str = "tcombined",
        naive_tags: bool | None = None,
    ) -> int:
        """Prepare (but do not execute) ``queries``; returns plans added."""
        added = 0
        planner_name = planner.lower()
        for query in queries:
            query = self._bind(query)
            key = self._fingerprint(query, planner_name, naive_tags)
            _prepared, reused = self._prepared_for(key, query, planner_name, naive_tags)
            if not reused:
                added += 1
        return added

    # ------------------------------------------------------------------ #
    # Batch path
    # ------------------------------------------------------------------ #
    def execute_batch(
        self,
        queries,
        planner: str = "tcombined",
        timeout: float | None = None,
    ) -> BatchReport:
        """Execute ``queries`` across the worker pool; returns a :class:`BatchReport`.

        Item order matches input order regardless of completion order.
        ``timeout`` (falling back to the service default) bounds how long the
        batch waits for each query *after reaching its turn in the collection
        loop*; a timed-out worker cannot be interrupted, but its slot frees
        up as soon as it finishes and its result is discarded.
        """
        queries = list(queries)
        timeout = self.default_timeout if timeout is None else timeout
        report = BatchReport(items=[
            BatchItem(index=index, query=query, planner=planner.lower())
            for index, query in enumerate(queries)
        ])
        if not queries:
            return report

        wall_timer = Stopwatch()
        futures: list[Future] = [
            self._ensure_pool().submit(self._run_one, item.query, item.planner)
            for item in report.items
        ]
        # Items are only ever mutated here, in the collecting thread; workers
        # return their outcome, so a timed-out worker's (eventual) result is
        # genuinely discarded rather than racing into the report.
        for item, future in zip(report.items, futures):
            try:
                result, error, elapsed = future.result(timeout=timeout)
            except FutureTimeout:
                item.timed_out = True
                continue
            item.result = result
            item.error = error
            item.elapsed_seconds = elapsed
        report.wall_seconds = wall_timer.elapsed()
        return report

    def _run_one(self, query: Query | str, planner: str):
        """Execute one query, returning ``(result, error, elapsed_seconds)``."""
        timer = Stopwatch()
        try:
            result = self.execute(query, planner=planner)
            return result, None, timer.elapsed()
        except Exception as error:  # noqa: BLE001 - surfaced via the item
            return None, f"{type(error).__name__}: {error}", timer.elapsed()

    # ------------------------------------------------------------------ #
    # Mutations & compaction
    # ------------------------------------------------------------------ #
    def execute_mutation(self, stage, attempts: int = 8):
        """Commit a mutation batch against the served catalog, retrying races.

        ``stage(batch)`` stages appends/deletes on a fresh
        :class:`~repro.mutation.batch.MutationBatch`; the commit runs under
        first-committer-wins conflict detection and lost races are retried
        with backoff (:func:`~repro.mutation.concurrency.retry_on_conflict`).
        The service's own mutation subscription then maintains its caches
        incrementally.  On a durable catalog the batch is WAL-logged and
        applied to the saved dataset before becoming visible.  Returns the
        winning :class:`~repro.mutation.delta.MutationCommit`.
        """
        from repro.mutation.concurrency import retry_on_conflict

        return retry_on_conflict(self.session.catalog, stage, attempts=attempts)

    def compact(self, root=None, online: bool = True) -> dict:
        """Compact the saved dataset underneath the served catalog.

        Runs an online :class:`~repro.mutation.compact.Compactor` attached
        to the live catalog: readers keep their pinned snapshots, writers
        keep committing (rebased onto the new generation), prepared plans
        against the old layout are invalidated by the swap's version bump.
        ``root`` defaults to the dataset the catalog's durability controller
        is bound to.  Returns the compaction summary.
        """
        from repro.mutation.compact import Compactor

        if root is None:
            durability = self.session.catalog.durability
            if durability is None:
                raise ValueError(
                    "no dataset root: the catalog has no durability controller; "
                    "pass root= explicitly"
                )
            root = durability.root
        return Compactor(root, catalog=self.session.catalog).run(online=online)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _on_mutation(self, commit) -> None:
        """React to a committed mutation batch with surgical invalidation.

        * statistics: the mutated tables' cached stats are *extended* by the
          commit's deltas (no rescan; see :meth:`StatsCache.apply_delta`) —
          other tables' entries are untouched;
        * plans: exactly the cached plans reading a mutated table are
          retired (their per-table fingerprints are dead keys anyway; this
          frees their memory immediately);
        * feedback: observations keyed to superseded snapshots are dropped
          so stale selectivities are never injected into a re-plan.
        """
        mutated = set(commit.deltas)
        if not mutated:
            return
        if isinstance(self.stats_cache, StatsCache):
            for delta in commit.deltas.values():
                self.stats_cache.apply_delta(delta)
        self.plan_cache.invalidate_matching(
            lambda prepared: bool(mutated & set(prepared.query.tables.values()))
        )
        self.feedback_store.drop_tables(mutated)

    def invalidate(self) -> None:
        """Drop every cached plan, statistic and feedback observation."""
        self.plan_cache.invalidate()
        if isinstance(self.stats_cache, StatsCache):
            self.stats_cache.invalidate()
        self.feedback_store.clear()

    def cache_metrics(self) -> dict[str, dict[str, float]]:
        """Hit/miss statistics of the plan and stats caches (for reports)."""
        metrics = {"plan_cache": self.plan_cache.stats.as_dict()}
        if isinstance(self.stats_cache, StatsCache):
            metrics["stats_cache"] = self.stats_cache.stats.as_dict()
        if self.feedback:
            feedback = dict(self.feedback_store.stats.as_dict())
            feedback["entries"] = len(self.feedback_store)
            metrics["feedback"] = feedback
        return metrics

    def close(self) -> None:
        """Shut down the worker pool and unsubscribe from the catalog (idempotent)."""
        self._unsubscribe()  # weakref.finalize: runs at most once
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _bind(self, query: Query | str) -> Query:
        """Parse a SQL string once (memoized); the bound Query then flows
        through fingerprinting and prepare without being re-parsed."""
        if isinstance(query, str):
            from repro.sql import parse_query_cached

            return parse_query_cached(query)
        return query

    def _fingerprint(
        self, query: Query | str, planner: str, naive_tags: bool | None
    ) -> str:
        # Resolve (and, on first use, create) the access manager through the
        # session so the first fingerprint already sees its version — reading
        # the catalog attribute directly would hash access_version=-1 before
        # the first prepare and split the cache key space.
        manager = self.session._access_manager()
        return query_fingerprint(
            query,
            planner,
            self.session.plan_options.replace(naive_tags=naive_tags),
            self._table_versions(query),
            manager.version if manager is not None else -1,
        )

    def _table_versions(self, query: Query) -> tuple[tuple[str, int], ...]:
        """Sorted (table, version) pairs of the query's base tables.

        Per-table granularity is what lets a mutation commit retire only the
        plans that read the mutated tables.  A table the catalog does not
        know reads as version ``-1`` — preparation will raise for it, but
        the fingerprint must not.
        """
        catalog = self.session.catalog
        versions = []
        for name in sorted(set(query.tables.values())):
            try:
                versions.append((name, catalog.table_version(name)))
            except KeyError:
                versions.append((name, -1))
        return tuple(versions)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-query",
                )
            return self._pool
