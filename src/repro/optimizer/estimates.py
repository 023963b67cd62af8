"""The unified estimation layer: one provider for every planning number.

Before this module existed, "get the selectivity of this expression" lived in
three near-copies — the measured estimator in :mod:`repro.stats.selectivity`,
the cost model in :mod:`repro.core.planner.cost` and the per-table caches in
:mod:`repro.service.stats_cache` each re-derived the same quantities.  An
:class:`EstimateProvider` is now the single object every planner, the benefit
scorer and the cost model consume: it bundles per-table statistics,
per-expression selectivities (measured on a sample), cardinality
formulas and the cost-model constants behind one interface.

The provider is also the injection point for **runtime feedback**: a mapping
of expression keys to *observed* selectivities (collected by the executor,
accumulated by :class:`repro.optimizer.feedback.FeedbackStore`) overrides the
a-priori estimates, so a re-planned query is costed with what actually
happened rather than what the sample predicted.  Estimation stays fully
deterministic: the same inputs (tables, sample seed, overrides) always
produce the same numbers, which keeps plans reproducible and cacheable.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.planner.base import PlanOptions
from repro.core.planner.cost import CostParams
from repro.expr.ast import BooleanExpr
from repro.plan.logical import (
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
)
from repro.plan.query import JoinCondition, Query
from repro.stats.selectivity import SelectivityEstimator
from repro.stats.table_stats import TableStats, collect_table_stats
from repro.storage.catalog import Catalog


def build_estimate_provider(
    query: Query,
    catalog: Catalog,
    options: PlanOptions = PlanOptions(),
    stats_provider=None,
    selectivity_overrides: Mapping[str, float] | None = None,
    access_manager=None,
) -> "EstimateProvider":
    """Collect statistics and build the :class:`EstimateProvider` for one query.

    Base-predicate selectivities are *measured*: each predicate is evaluated
    on a sample of ``options.stats_sample_size`` rows per table (the paper's
    approach, Section 4.1); ``options.cost_params`` are the cost constants.

    ``stats_provider`` optionally supplies the two cacheable (per-table,
    query-independent) ingredients — ``table_stats(table)`` summaries and
    ``sample_positions(table, sample_size, seed)`` draws — so a caller
    serving many queries (the service layer's stats cache) computes them once
    per table version instead of once per call.  When omitted, both are
    computed from scratch, which is byte-for-byte equivalent because stats
    collection and sampling are deterministic.

    ``selectivity_overrides`` maps expression keys
    (:meth:`~repro.expr.ast.BooleanExpr.key`) to observed selectivities; the
    service layer injects feedback-corrected values here when re-planning a
    query whose estimates drifted from reality.

    ``access_manager`` optionally supplies the catalog's
    :class:`~repro.access.manager.AccessPathManager`; when given, the
    provider exposes per-leaf access-path choices (index-scan vs
    zone-pruned-scan vs full-scan) through :meth:`EstimateProvider.access_plan`
    and the cost model's scan term.  Planners consume those choices only
    through the provider, keeping ``repro.core.planner`` free of access-path
    imports.
    """
    # A type error in the query, or NULLs two-valued planning cannot honour,
    # is reported before any statistic is sampled.
    query.check_ordering_types(catalog)
    query.check_join_key_types(catalog)
    if not options.three_valued:
        query.check_null_free(catalog)
    collect = collect_table_stats if stats_provider is None else stats_provider.table_stats
    table_stats = {
        table_name: collect(catalog.get(table_name))
        for table_name in set(query.tables.values())
    }
    estimator = SelectivityEstimator(
        catalog,
        query,
        sample_size=options.stats_sample_size,
        sample_provider=None if stats_provider is None else stats_provider.sample_positions,
    )
    access_chooser = None
    if access_manager is not None:
        from repro.access.chooser import AccessPathChooser

        access_chooser = AccessPathChooser(query, access_manager)
    return EstimateProvider(
        query,
        table_stats,
        estimator,
        cost_params=options.cost_params,
        overrides=selectivity_overrides,
        access_chooser=access_chooser,
    )


class EstimateProvider:
    """Every number a planner needs about one query, behind one interface.

    Args:
        query: the query being planned (supplies alias -> table bindings).
        table_stats: per-table summary statistics, keyed by table name.
        estimator: the selectivity backend (measured on a sample).  Its
            cache-first AND/OR/NOT recursion is the single implementation of
            the independence-assumption combination; overrides are *seeded*
            into that cache, so a pinned sub-expression affects every
            combination containing it.
        cost_params: cost-model calibration constants.
        overrides: expression key -> observed selectivity.  This is how
            runtime feedback corrects the independence assumption for, say,
            a correlated conjunction.
    """

    def __init__(
        self,
        query: Query,
        table_stats: dict[str, TableStats],
        estimator: SelectivityEstimator,
        cost_params: CostParams | None = None,
        overrides: Mapping[str, float] | None = None,
        access_chooser=None,
    ) -> None:
        self.query = query
        self.table_stats = dict(table_stats)
        self.cost_params = cost_params or CostParams()
        self._estimator = estimator
        self._overrides = {
            key: min(max(float(value), 0.0), 1.0)
            for key, value in dict(overrides or {}).items()
        }
        self._access_chooser = access_chooser
        self._access_plan = None
        self._seed_overrides()

    def _seed_overrides(self) -> None:
        for key, value in self._overrides.items():
            self._estimator.seed_selectivity(key, value)

    # ------------------------------------------------------------------ #
    # Selectivity
    # ------------------------------------------------------------------ #
    def selectivity(self, expr: BooleanExpr) -> float:
        """Estimated fraction of rows satisfying ``expr`` (override-aware)."""
        return self._estimator.selectivity(expr)

    def cost_factor(self, expr: BooleanExpr) -> float:
        """Relative per-row evaluation cost of a predicate (``F_P``)."""
        return self._estimator.cost_factor(expr)

    def set_selectivity(self, expr: BooleanExpr, value: float) -> None:
        """Pin the estimate for an expression (tests, ablations, feedback).

        Already-derived combinations are recomputed, so pinning a
        sub-expression after its parents were estimated still takes effect.
        """
        self._overrides[expr.key()] = min(max(float(value), 0.0), 1.0)
        self._estimator.reset_estimates()
        self._seed_overrides()

    @property
    def overrides(self) -> dict[str, float]:
        """The active selectivity overrides (a copy)."""
        return dict(self._overrides)

    # ------------------------------------------------------------------ #
    # Cardinality
    # ------------------------------------------------------------------ #
    def base_rows(self, alias: str) -> float:
        """Number of rows in the base table bound to ``alias``."""
        table_name = self.query.tables[alias]
        return float(self.table_stats[table_name].num_rows)

    def distinct_values(self, alias: str, column: str) -> float:
        """Distinct-value count of ``alias.column``."""
        table_name = self.query.tables[alias]
        return float(self.table_stats[table_name].distinct_count(column))

    def filtered_rows(self, alias: str, predicates: list[BooleanExpr]) -> float:
        """Rows of ``alias`` surviving the given (conjunctive) predicates."""
        rows = self.base_rows(alias)
        for predicate in predicates:
            rows *= self.selectivity(predicate)
        return rows

    def join_rows_multi(
        self, left_rows: float, right_rows: float, conditions: list[JoinCondition]
    ) -> float:
        """Estimated output size of an equi-join (PostgreSQL-style).

        Each condition divides the cross product by the larger distinct-value
        count of its two keys (independence across keys).
        """
        if not conditions:
            return left_rows * right_rows
        result = left_rows * right_rows
        for condition in conditions:
            left_ndv = self.distinct_values(condition.left.alias, condition.left.column)
            right_ndv = self.distinct_values(condition.right.alias, condition.right.column)
            result /= max(left_ndv, right_ndv, 1.0)
        return result

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def access_plan(self):
        """Per-alias access-path choices (:class:`QueryAccessPlan`) or None.

        Built lazily from the :class:`~repro.access.chooser.AccessPathChooser`
        this provider was constructed with; ``None`` when access paths are
        disabled or no manager is registered on the catalog.  This is the
        *only* interface through which planners (and the session) learn about
        zone maps and indexes.
        """
        if self._access_chooser is None:
            return None
        if self._access_plan is None:
            self._access_plan = self._access_chooser.build_plan(self)
        return self._access_plan

    def scan_pages(self, alias: str) -> float:
        """Estimated pages one scan of ``alias`` touches per referenced column.

        Reflects the chosen access path: a full scan reads every page, an
        index or zone-pruned scan only its estimated candidate pages.  Used
        by the cost model's per-leaf scan term, so every planner costs
        index-scan vs zone-pruned-scan vs full-scan without importing the
        access layer.
        """
        plan = self.access_plan()
        choice = plan.choice(alias) if plan is not None else None
        if choice is None:
            return float(self.table_stats[self.query.tables[alias]].num_pages)
        return float(choice.total_pages if choice.kind == "full" else choice.est_pages)


def estimate_plan_rows(plan: PlanNode, estimates: EstimateProvider) -> dict[int, float]:
    """Estimated output rows of every node in a logical plan tree.

    A model-agnostic bottom-up walk (scans emit base rows, filters multiply
    by predicate selectivity, joins apply the NDV formula); used to annotate
    traditional plans for ``--explain-analyze``.  Tagged plans get
    their (tag-aware) per-node estimates from the cost model instead.
    """
    rows_by_node: dict[int, float] = {}

    def walk(node: PlanNode) -> float:
        if isinstance(node, TableScanNode):
            rows = estimates.base_rows(node.alias)
        elif isinstance(node, FilterNode):
            rows = walk(node.child) * estimates.selectivity(node.predicate)
        elif isinstance(node, JoinNode):
            rows = estimates.join_rows_multi(
                walk(node.left), walk(node.right), node.conditions
            )
        elif isinstance(node, ProjectNode):
            rows = walk(node.child)
        else:
            raise TypeError(f"unknown plan node type: {type(node).__name__}")
        rows_by_node[node.node_id] = rows
        return rows

    walk(plan)
    return rows_by_node
