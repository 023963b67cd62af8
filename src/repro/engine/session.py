"""The public, high-level API: :class:`Session`.

A session wraps a catalog of base tables and executes queries — written in
SQL or built programmatically as :class:`~repro.plan.query.Query` objects —
under any of the planners evaluated in the paper:

==============  ======================================================
planner name    meaning
==============  ======================================================
``tcombined``   tagged execution, cheapest of the four tagged planners
``tpushdown``   tagged execution, all base predicates pushed down
``tpullup``     tagged execution, Algorithm 2 pull-up search
``titerpush``   tagged execution, iterative push-down search
``tpushconj``   tagged execution forced to mimic a conjunctive planner
``texhaustive`` tagged execution, DP join ordering (extension beyond the paper)
``bdisj``       traditional execution, per-root-clause plans + union
``bpushconj``   traditional execution, conjunctive pushdown only
==============  ======================================================

Example::

    from repro import Session
    from repro.workloads.imdb import generate_imdb_catalog

    session = Session(generate_imdb_catalog(scale=0.1, seed=7))
    result = session.execute(
        "SELECT * FROM title AS t JOIN movie_info_idx AS mi_idx "
        "ON t.id = mi_idx.movie_id "
        "WHERE (t.production_year > 2000 AND mi_idx.info > 7.0) "
        "   OR (t.production_year > 1980 AND mi_idx.info > 8.0)",
        planner="tcombined",
    )
    print(result.row_count, result.total_seconds)

Execution is split into two phases so callers can reuse the expensive one:
:meth:`Session.prepare` parses, collects statistics and plans, returning a
:class:`PreparedPlan`; :meth:`Session.execute_prepared` runs a prepared plan.
:meth:`Session.execute` simply chains the two.  The service layer
(:mod:`repro.service`) caches :class:`PreparedPlan` objects keyed by a
normalized query fingerprint so repeated queries skip the prepare phase
entirely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.baseline.planners import BDisjPlanner, BPushConjPlanner
from repro.core import planner as tagged
from repro.core.planner.base import PLAN_OPTION_NAMES, PlannerContext, PlanOptions
from repro.core.predtree import PredicateTree
from repro.core.tagmap import PlanTagAnnotations, TagAlgebraMemo
from repro.engine.metrics import EXEC_OPTION_NAMES, ExecContext, ExecOptions, Stopwatch
from repro.engine.parallel import execute_plan
from repro.engine.postprocess import apply_output_shaping
from repro.engine.result import QueryResult
from repro.obs.history import QueryRecord, get_history, plan_hash_of, session_fingerprint
from repro.plan.logical import PlanNode
from repro.plan.query import Query
from repro.storage.catalog import Catalog

#: The planner table: name -> planner class; the class's ``kind`` names the
#: execution model of the :class:`~repro.core.planner.base.PlannerResult` it
#: returns.  Every name a caller may pass as ``planner=`` is a row here.
PLANNERS = {
    planner_class.name: planner_class
    for planner_class in (
        tagged.TPushdownPlanner,
        tagged.TPullupPlanner,
        tagged.TIterPushPlanner,
        tagged.TPushConjPlanner,
        tagged.TCombinedPlanner,
        tagged.TExhaustivePlanner,
        BDisjPlanner,
        BPushConjPlanner,
    )
}
TAGGED_PLANNERS = tuple(
    name for name, planner_class in PLANNERS.items() if planner_class.kind == "tagged"
)


@dataclass
class PreparedPlan:
    """The reusable outcome of the prepare phase for one query.

    Holds everything execution needs and nothing it does not: the chosen
    plan, its tag annotations (tagged execution only) and the predicate tree.
    A prepared plan is immutable during execution, so one instance can be
    executed many times — including concurrently from several threads — as
    long as the catalog it was planned against is unchanged.

    Attributes:
        planner: the planner name the caller requested (``"tcombined"``, ...).
        kind: execution model — ``"tagged"`` or ``"traditional"``.
        query: the bound query (drives output shaping and projection).
        roots: the logical tree(s) execution compiles — one per subplan of a
            traditional plan, otherwise the single plan tree.
        annotations: tag maps for tagged plans, ``None`` otherwise.
        predicate_tree: the query's predicate tree (``None`` without WHERE),
            shared with every other prepare of the same predicate.
        plan_description: pretty-printed plan, as shown by ``explain``.
        plan_hash: short stable hash of ``plan_description``
            (:func:`repro.obs.history.plan_hash_of`), computed once here so
            a plan-cache hit publishes it without hashing again.
        planning_seconds: wall-clock cost of the prepare phase.
        estimated_rows: estimated output rows per plan node id (tag-aware
            for tagged plans, generic bottom-up walk otherwise); consumed by
            ``--explain-analyze``.
        estimated_output_rows: the plan's estimated output cardinality —
            the root entry of ``estimated_rows`` (for traditional plans the
            sum over subplan roots, which over-counts rows matched by
            several clauses).  The service layer's feedback loop holds this
            against the observed output cardinality (q-error).
        clause_selectivities: estimated selectivity per AND/OR child of the
            WHERE expression (:func:`repro.optimizer.clause_order.\
clause_selectivities`); seeds the fused kernels' clause evaluation order
            and the ``--explain-analyze`` order annotation.
        planning_work: deterministic counters of what this prepare
            computed (``candidate_plans`` costed, ``tagmap_nodes_built`` —
            operator tag maps built rather than found in the session's
            :class:`~repro.core.tagmap.TagAlgebraMemo`,
            ``generalizations_computed`` — runs of Algorithm 1); a re-plan
            that meets only known candidates builds none, and all are zero
            for the untagged planners.
        snapshot: the :class:`~repro.mutation.snapshot.CatalogSnapshot`
            the prepare planned from.  Execution always runs against it, which
            is what makes reads snapshot-isolated: a mutation committed
            after ``prepare()`` registers *new* table objects in the
            catalog, while this plan keeps reading the (immutable) objects
            it was planned against.
    """

    planner: str
    kind: str
    query: Query
    roots: list[PlanNode]
    annotations: PlanTagAnnotations | None
    predicate_tree: PredicateTree | None
    plan_description: str
    plan_hash: str | None
    planning_seconds: float
    estimated_rows: dict[int, float] = field(default_factory=dict)
    estimated_output_rows: float = 0.0
    clause_selectivities: dict[str, float] = field(default_factory=dict)
    planning_work: dict[str, int] = field(default_factory=dict)
    #: Per-alias access-path choices
    #: (:class:`~repro.access.chooser.QueryAccessPlan`); ``None`` when access
    #: paths are disabled.  Execution resolves it into candidate sets that
    #: prune scans; resolution is memoized per table version, so repeated
    #: executions of a cached plan pay nothing.  Resolution is version-pinned:
    #: once a table mutates past the plan's snapshot, its alias simply stops
    #: pruning (the snapshot scan stays correct on its own).
    access_plan: object | None = None
    snapshot: object | None = None

    def shippable(self) -> "PreparedPlan":
        """This plan without its process-local state, for shard workers.

        The access plan reaches the access-path manager (an ``RLock``) and
        the snapshot holds the tables; the coordinator resolves the former to
        plain candidate position arrays and ships the latter once, by token.
        """
        return dataclasses.replace(self, access_plan=None, snapshot=None)


class Session:
    """Executes queries against a catalog under a chosen planner.

    Args:
        catalog: the base tables.
        **overrides: session-wide defaults, each routed by name to the one
            options type that declares it: planning values
            (``cost_params=``, ``stats_sample_size=``, ``access_paths=``,
            ``naive_tags=``) into :attr:`plan_options`
            (:class:`~repro.core.planner.base.PlanOptions`), execution values
            (``parallelism=``, ``partitions=``, ``shards=``, ...) into
            :attr:`options` (:class:`~repro.engine.metrics.ExecOptions`,
            which never affects planning).  A bad value raises ``ValueError``
            here, an unknown name ``TypeError``.  With ``access_paths`` on
            and no :class:`~repro.access.manager.AccessPathManager` on the
            catalog yet, one is registered lazily (zone maps build on first
            use; secondary indexes only ever exist when created explicitly).
            Whether a plan's tag algebra is two- or three-valued is no
            option: each prepare derives it from the query and the data
            (:meth:`~repro.plan.query.Query.can_be_unknown`).
    """

    def __init__(self, catalog: Catalog, **overrides) -> None:
        self.catalog = catalog
        unknown = sorted(overrides.keys() - PLAN_OPTION_NAMES - EXEC_OPTION_NAMES)
        if unknown:
            raise TypeError(
                f"{unknown[0]!r} is neither a planning option "
                f"({', '.join(sorted(PLAN_OPTION_NAMES))}) nor an execution option "
                f"({', '.join(sorted(EXEC_OPTION_NAMES))})"
            )
        self.plan_options = PlanOptions().replace(
            **{name: overrides.pop(name) for name in PLAN_OPTION_NAMES & overrides.keys()}
        )
        self.options = ExecOptions().replace(**overrides)
        # Imported lazily: the service package imports this module.
        from repro.service.plan_cache import DEFAULT_PLAN_CACHE_SIZE
        from repro.service.stats_cache import StatsCache

        #: Table statistics, samples and measured base-predicate
        #: selectivities, computed once per table version for every prepare
        #: (see :class:`~repro.service.stats_cache.StatsCache`).
        self.stats_cache = StatsCache(catalog)
        #: Every prepare's predicate tree and operator tag maps, remembered
        #: per predicate across prepares (see
        #: :class:`~repro.core.tagmap.TagAlgebraMemo`); bounded like the
        #: plan cache.
        self.tag_memo = TagAlgebraMemo(DEFAULT_PLAN_CACHE_SIZE)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query | str,
        planner: str = "tcombined",
        naive_tags: bool | None = None,
        **overrides,
    ) -> QueryResult:
        """Plan and execute a query; returns a :class:`QueryResult`.

        ``naive_tags`` overrides the session's planning option of that name
        for this call.  ``overrides`` replace fields of the session's
        :class:`~repro.engine.metrics.ExecOptions` for this call only
        (``shards=2``, ``trace=True``, ...; see :meth:`execute_prepared`).

        When a process-ambient :class:`~repro.obs.history.WorkloadHistory`
        is installed (:func:`repro.obs.history.set_history`), the finished
        execution is recorded there.  (A :class:`~repro.service.QueryService`
        never comes through here: it records at its own publish point, which
        knows the real plan-cache fingerprint.)  Recording happens after
        execution, from merged coordinator-side counters; rows and IO
        accounting are identical with history on or off.
        """
        planner = planner.lower()
        query = self._bind(query)
        options = self.options.replace(**overrides)
        history = get_history()
        wall_timer = Stopwatch()
        prepared = self.prepare(query, planner, naive_tags)
        result = self.execute_prepared(prepared, **vars(options))
        if history is not None:
            record = QueryRecord.of(
                result, session_fingerprint(query, planner), wall_timer.elapsed(), options.shards
            )
            history.record_query(record, trace=result.trace)
        return result

    def begin_mutation(self):
        """Start a :class:`~repro.mutation.batch.MutationBatch` on the
        session's catalog.  Batches may overlap — commits race first-
        committer-wins per table, losers raise
        :class:`~repro.mutation.batch.ConflictError` (see
        :func:`~repro.mutation.concurrency.retry_on_conflict`)."""
        return self.catalog.begin_mutation()

    def prepare(
        self,
        query: Query | str,
        planner: str = "tcombined",
        naive_tags: bool | None = None,
        selectivity_overrides=None,
    ) -> PreparedPlan:
        """Parse, collect statistics and plan; returns a :class:`PreparedPlan`.

        ``planner`` names a row of :data:`PLANNERS`; any other name raises
        ``ValueError``.  The plan is built under the session's
        :class:`~repro.core.planner.base.PlanOptions` (``naive_tags``
        overrides that one field for this call).

        ``selectivity_overrides`` maps expression keys to observed
        selectivities (see
        :class:`~repro.optimizer.estimates.EstimateProvider`); the service
        layer injects runtime feedback here when re-planning a drifted query.
        Planning stays deterministic in all of its inputs, overrides
        included.
        """
        planner = planner.lower()
        planner_class = PLANNERS.get(planner)
        if planner_class is None:
            raise ValueError(
                f"unknown planner {planner!r}; choose one of {', '.join(PLANNERS)}"
            )
        bound = self._bind(query)
        timer = Stopwatch()
        context = self._planner_context(bound, naive_tags, selectivity_overrides)
        planned = planner_class(context).plan()

        from repro.optimizer.clause_order import clause_selectivities

        predicate_tree = context.predicate_tree
        plan_description = planned.description()
        return PreparedPlan(
            planner=planner,
            kind=planned.kind,
            query=bound,
            roots=planned.roots,
            annotations=planned.annotations,
            predicate_tree=predicate_tree,
            plan_description=plan_description,
            planning_seconds=timer.elapsed(),
            plan_hash=plan_hash_of(plan_description),
            estimated_rows=dict(planned.node_rows),
            estimated_output_rows=planned.estimated_output_rows,
            clause_selectivities=clause_selectivities(
                predicate_tree.expression if predicate_tree is not None else None,
                context.estimates,
            ),
            planning_work=context.tag_maps.work,
            access_plan=context.estimates.access_plan(),
            snapshot=context.catalog,
        )

    def execute_prepared(
        self,
        prepared: PreparedPlan,
        planning_seconds: float | None = None,
        cache_hit: bool = False,
        **overrides,
    ) -> QueryResult:
        """Execute a :class:`PreparedPlan` and return a :class:`QueryResult`.

        ``planning_seconds`` overrides the reported planning time (the
        service layer passes the cache-lookup time on a hit); by default the
        original prepare cost is reported, which makes
        ``execute() == prepare() + execute_prepared()`` faithful to the
        paper's planning/execution split.

        The run is governed by one :class:`~repro.engine.metrics.ExecOptions`
        (field meanings are documented there): the session's, with the
        keyword ``overrides`` applied, e.g.
        ``execute_prepared(plan, partitions=4, shards=2)``.  Both models
        execute through the same physical-operator layer, morsel by
        morsel, in-process or on shard worker processes; output shaping runs
        once, after the gather.

        Execution reads the plan's pinned catalog **snapshot** (see
        :mod:`repro.mutation`): a mutation committed between ``prepare`` and
        ``execute_prepared`` is invisible to this plan, which keeps the
        paper's planning/execution split deterministic under concurrent
        ingest.  Serve-current-data callers simply re-prepare (the service
        layer's per-table fingerprints do this automatically).  The same
        pinning carries prepared plans across an **online compaction**: the
        swap registers new table objects, but the snapshot keeps the old
        immutable ones — with the row positions the plan's access paths were
        built against — alive until the last pinning plan is dropped.

        With ``trace`` set the result carries the span tree
        (``result.trace``) — query → plan (synthetic, backfilled from the
        reported planning time) → execute (morsel / shard / per-operator
        detail) → postprocess — and per-operator timings.  Tracing never
        changes rows, IO accounting, or work counters; with ``trace`` falsy
        (the default) no tracer object exists at all.
        """
        options = self.options.replace(**overrides)
        query = prepared.query
        tracer = None
        if options.trace:
            from repro.obs.trace import Tracer

            tracer = options.trace if isinstance(options.trace, Tracer) else Tracer()
        exec_context = ExecContext(
            collect_feedback=options.collect_feedback,
            clause_selectivities=prepared.clause_selectivities,
            tracer=tracer,
        )
        reported_planning = (
            prepared.planning_seconds if planning_seconds is None else planning_seconds
        )

        if tracer is not None:
            tracer.begin("query", planner=prepared.planner, kind=prepared.kind)
            tracer.add_synthetic("plan", reported_planning, cache_hit=cache_hit)
            tracer.begin(
                "execute", parallelism=options.parallelism, shards=options.shards
            )

        execution_timer = Stopwatch()
        if not self.plan_options.access_paths and prepared.access_plan is not None:
            prepared = dataclasses.replace(prepared, access_plan=None)
        output = execute_plan(
            prepared,
            prepared.snapshot if prepared.snapshot is not None else self.catalog,
            exec_context,
            options,
        )
        if tracer is not None:
            # Materialize one span per operator under the still-open execute
            # span: duration is the operator's *self* time (additive across
            # operators), inclusive time and call count ride as attributes.
            for node_id, timing in sorted(tracer.operator_timings().items()):
                tracer.add_synthetic(
                    f"operator:{timing['label']}#{node_id}",
                    timing["self_seconds"],
                    inclusive_seconds=timing["seconds"],
                    calls=timing["calls"],
                )
            tracer.end(
                pages_read=exec_context.iostats.pages_read,
                pages_hit=exec_context.iostats.pages_hit,
                pages_pruned=exec_context.metrics.pages_pruned,
                morsels=exec_context.metrics.morsels_executed,
                shards_executed=exec_context.metrics.shards_executed,
            )
        if query.has_output_shaping:
            if tracer is not None:
                with tracer.span("postprocess"):
                    output = apply_output_shaping(
                        output,
                        query,
                        skip_aggregates=exec_context.aggregates_prefolded,
                    )
            else:
                output = apply_output_shaping(
                    output, query, skip_aggregates=exec_context.aggregates_prefolded
                )
        execution_seconds = execution_timer.elapsed()
        if tracer is not None:
            tracer.end(output_rows=output.row_count, cache_hit=cache_hit)

        return QueryResult(
            planner_name=prepared.planner,
            output=output,
            planning_seconds=reported_planning,
            execution_seconds=execution_seconds,
            metrics=exec_context.metrics,
            iostats=exec_context.iostats,
            plan_description=prepared.plan_description,
            plan_hash=prepared.plan_hash,
            cache_hit=cache_hit,
            trace=tracer,
        )

    def explain(
        self,
        query: Query | str,
        planner: str = "tcombined",
        naive_tags: bool | None = None,
    ) -> str:
        """Return the chosen plan(s) as a pretty-printed string."""
        return self.prepare(query, planner, naive_tags).plan_description

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _bind(self, query: Query | str) -> Query:
        if isinstance(query, Query):
            return query
        from repro.sql import parse_query

        return parse_query(query)

    def _access_manager(self):
        """The catalog's access-path manager (created lazily), or None."""
        if not self.plan_options.access_paths:
            return None
        from repro.access.manager import ensure_access_manager

        return ensure_access_manager(self.catalog)

    def _planner_context(
        self, query: Query, naive_tags: bool | None = None, selectivity_overrides=None
    ) -> PlannerContext:
        """The context :meth:`prepare` plans ``query`` with.

        It plans from a snapshot of the tables ``query`` reads, which the
        prepared plan then pins and executes on: the statistics, access
        paths and tag logic (two-valued on NULL-free data) a plan was chosen
        with are those of the rows it reads, whatever commits land
        meanwhile.  Pinning only the query's tables keeps no superseded
        generation of an unrelated table alive while the plan stays cached.
        """
        tables = set(query.tables.values())
        snapshot = self.catalog.snapshot(tables=tables)
        for name in tables.difference(snapshot.table_names):
            self.catalog.get(name)  # raises, naming the catalog's tables
        return PlannerContext.for_query(
            query,
            snapshot,
            self.plan_options.replace(naive_tags=naive_tags),
            stats_cache=self.stats_cache,
            selectivity_overrides=selectivity_overrides,
            access_manager=self._access_manager(),
            tag_memo=self.tag_memo,
        )
