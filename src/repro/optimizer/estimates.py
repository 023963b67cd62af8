"""The estimation layer: one provider for every planning number.

An :class:`EstimateProvider` is the single object every planner, the benefit
scorer and the cost model consume: it bundles per-table statistics,
per-expression selectivities (measured on a sample), cardinality formulas
and the cost-model constants behind one interface.  Its per-table
ingredients — statistics, samples and base-predicate measurements — come
from a :class:`~repro.service.stats_cache.StatsCache`, which memoizes them
per table version.

The provider is also the injection point for **runtime feedback**: a mapping
of expression keys to *observed* selectivities (collected by the executor,
accumulated by :class:`repro.optimizer.feedback.FeedbackStore`) overrides the
a-priori estimates, so a re-planned query is costed with what actually
happened rather than what the sample predicted.  Estimation stays fully
deterministic: the same inputs (tables, sample size, overrides) always
produce the same numbers, which keeps plans reproducible and cacheable.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

from repro.core.planner.base import PlanOptions
from repro.core.planner.cost import CostParams
from repro.expr.ast import AndExpr, BooleanExpr, LikePredicate, NotExpr, OrExpr
from repro.expr.eval import RowBatch
from repro.kernels.dictionary import LeafEvaluator
from repro.plan.logical import (
    FilterNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
)
from repro.plan.query import JoinCondition, Query
from repro.stats.selectivity import DEFAULT_SELECTIVITY, sampled_selectivity
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.stats_cache import StatsCache


def build_estimate_provider(
    query: Query,
    catalog: Catalog,
    options: PlanOptions = PlanOptions(),
    stats_cache: StatsCache | None = None,
    selectivity_overrides: Mapping[str, float] | None = None,
    access_manager=None,
) -> "EstimateProvider":
    """Check ``query`` against ``catalog`` and build its :class:`EstimateProvider`.

    Base-predicate selectivities are *measured*: each predicate is evaluated
    on a sample of ``options.stats_sample_size`` rows per table (the paper's
    approach, Section 4.1); ``options.cost_params`` are the cost constants.

    ``stats_cache`` supplies the per-table ingredients (a session passes its
    own, so a table's statistics, sample and measurements are computed once
    per table version); ``None`` plans from a fresh
    :class:`~repro.service.stats_cache.StatsCache`, which measures the same
    numbers because stats collection, sampling and measurement are
    deterministic.

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
    # A type error in the query is reported before any statistic is sampled.
    query.check_ordering_types(catalog)
    query.check_join_key_types(catalog)
    if stats_cache is None:
        # Imported lazily: the service package imports the session, which
        # imports the planners that import this module.
        from repro.service.stats_cache import StatsCache

        stats_cache = StatsCache(catalog)
    access_chooser = None
    if access_manager is not None:
        from repro.access.chooser import AccessPathChooser

        access_chooser = AccessPathChooser(query, access_manager, catalog)
    return EstimateProvider(
        query,
        catalog,
        stats_cache,
        sample_size=options.stats_sample_size,
        cost_params=options.cost_params,
        overrides=selectivity_overrides,
        access_chooser=access_chooser,
    )


class EstimateProvider:
    """Every number a planner needs about one query, behind one interface.

    Args:
        query: the query being planned (supplies alias -> table bindings).
        catalog: the base tables.
        stats_cache: the per-table statistics, samples and measurements.
        sample_size: rows sampled per table to measure base predicates on.
        cost_params: cost-model calibration constants.
        overrides: expression key -> observed selectivity.  They are the
            initial (clamped) contents of the selectivity memo, so a pinned
            sub-expression affects every AND/OR/NOT combination containing
            it; this is how runtime feedback corrects the independence
            assumption for, say, a correlated conjunction.
        access_chooser: the query's
            :class:`~repro.access.chooser.AccessPathChooser`, or ``None``.
    """

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        stats_cache: StatsCache,
        sample_size: int,
        cost_params: CostParams | None = None,
        overrides: Mapping[str, float] | None = None,
        access_chooser=None,
    ) -> None:
        self.query = query
        self.table_stats = {
            table_name: stats_cache.table_stats(catalog.get(table_name))
            for table_name in set(query.tables.values())
        }
        self.cost_params = cost_params or CostParams()
        self._catalog = catalog
        self._stats_cache = stats_cache
        self._sample_size = sample_size
        #: expression key -> selectivity: overrides, then every estimate made.
        self._selectivities: dict[str, float] = {
            key: min(max(float(value), 0.0), 1.0)
            for key, value in dict(overrides or {}).items()
        }
        # alias -> the leaf routine over its sample batch, so each column of
        # the sample is gathered once (as codes or as values) per query.
        self._leaves: dict[str, LeafEvaluator] = {}
        self._access_chooser = access_chooser
        self._access_plan = None

    # ------------------------------------------------------------------ #
    # Selectivity
    # ------------------------------------------------------------------ #
    def selectivity(self, expr: BooleanExpr) -> float:
        """Estimated fraction of rows satisfying ``expr`` (override-aware).

        Combinations follow the independence assumption:
        ``sel(AND)`` is the product of its children's, ``sel(OR)`` one minus
        the product of their complements, ``sel(NOT)`` one minus its
        child's.  A base predicate is measured on its table's sample; one
        spanning several tables gets :data:`DEFAULT_SELECTIVITY`.
        """
        key = expr.key()
        if key in self._selectivities:
            return self._selectivities[key]
        estimate = min(max(self._estimate(expr), 0.0), 1.0)
        self._selectivities[key] = estimate
        return estimate

    def cost_factor(self, expr: BooleanExpr) -> float:
        """Relative per-row evaluation cost of a predicate (``F_P``).

        Pattern-matching predicates (LIKE / ILIKE) are an order of magnitude
        more expensive per row than comparisons, matching the role regex
        predicates play in the paper's TPullup/TIterPush discussion.
        """
        if isinstance(expr, LikePredicate):
            return 10.0
        if expr.is_base_predicate():
            return 1.0
        children = expr.children()
        return sum(self.cost_factor(child) for child in children) or 1.0

    def _estimate(self, expr: BooleanExpr) -> float:
        if isinstance(expr, AndExpr):
            product = 1.0
            for child in expr.children():
                product *= self.selectivity(child)
            return product
        if isinstance(expr, OrExpr):
            product = 1.0
            for child in expr.children():
                product *= 1.0 - self.selectivity(child)
            return 1.0 - product
        if isinstance(expr, NotExpr):
            return 1.0 - self.selectivity(expr.child)
        return self._measure_base(expr)

    def _measure_base(self, expr: BooleanExpr) -> float:
        aliases = expr.tables()
        if len(aliases) != 1:
            return DEFAULT_SELECTIVITY
        alias = next(iter(aliases))
        if alias not in self.query.tables:
            return DEFAULT_SELECTIVITY
        return self._stats_cache.measured_selectivity(
            self._catalog.get(self.query.tables[alias]),
            self._sample_size,
            expr.key(),
            lambda: self._measure_on_sample(alias, expr),
        )

    def _measure_on_sample(self, alias: str, expr: BooleanExpr) -> float:
        leaves = self._leaves.get(alias)
        if leaves is None:
            table = self._catalog.get(self.query.tables[alias])
            positions = self._stats_cache.sample_positions(table, self._sample_size)
            leaves = LeafEvaluator(RowBatch({alias: table}, {alias: positions}))
            self._leaves[alias] = leaves
        return sampled_selectivity(leaves, expr)

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
    _estimate_rows(plan, estimates, rows_by_node)
    return rows_by_node


def _estimate_rows(
    node: PlanNode, estimates: EstimateProvider, rows_by_node: dict[int, float]
) -> float:
    """``node``'s estimated rows, recorded with its subtree's in ``rows_by_node``.

    A module-level function rather than a closure that calls itself: such a
    closure is a reference cycle, which would keep ``estimates`` — and the
    sample batches it gathered — alive until the next garbage collection.
    """
    if isinstance(node, TableScanNode):
        rows = estimates.base_rows(node.alias)
    elif isinstance(node, FilterNode):
        rows = _estimate_rows(node.child, estimates, rows_by_node) * estimates.selectivity(
            node.predicate
        )
    elif isinstance(node, JoinNode):
        rows = estimates.join_rows_multi(
            _estimate_rows(node.left, estimates, rows_by_node),
            _estimate_rows(node.right, estimates, rows_by_node),
            node.conditions,
        )
    elif isinstance(node, ProjectNode):
        rows = _estimate_rows(node.child, estimates, rows_by_node)
    else:
        raise TypeError(f"unknown plan node type: {type(node).__name__}")
    rows_by_node[node.node_id] = rows
    return rows
