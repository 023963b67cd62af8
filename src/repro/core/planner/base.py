"""Shared planner infrastructure.

:class:`PlanOptions` is the single definition of what a plan depends on
besides the query and the data: the planner reads it and the plan cache
hashes it (:func:`repro.service.fingerprint.query_fingerprint`).

:class:`PlannerContext` bundles everything a planner needs about one query:
the query itself, the options, its predicate tree and a single
:class:`~repro.optimizer.estimates.EstimateProvider` supplying all planning
numbers (table statistics, per-expression selectivities, cost constants).
Planners never construct estimators themselves — the provider is built by
:func:`repro.optimizer.estimates.build_estimate_provider` and may carry
feedback-corrected selectivity overrides injected by the service layer.

:class:`TaggedPlanner` is the base class of every planner.  A planner
with one fixed plan implements :meth:`TaggedPlanner.build_plan`; a
searching planner overrides :meth:`TaggedPlanner.plan` and returns the
result its search already costed for its pick.  Every candidate goes
through :meth:`TaggedPlanner.cost` once.  The untagged (traditional)
planners reuse the plan-building helpers and finish through
:meth:`TaggedPlanner.untagged_result`.  All of them return one
:class:`PlannerResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.planner.benefit import benefiting_order
from repro.core.planner.cost import CostParams, estimate_plan_cost
from repro.core.predtree import PredicateTree
from repro.core.tagmap import PlanTagAnnotations, TagMapBuilder
from repro.expr.ast import BooleanExpr
from repro.expr.builders import or_
from repro.plan.logical import (
    FilterNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
    plan_to_string,
)
from repro.plan.query import Query
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.optimizer.estimates import EstimateProvider


@dataclass(frozen=True)
class PlanOptions:
    """What a plan depends on besides the query and the data.

    ``Session`` holds one instance as ``session.plan_options``; the keyword
    spellings ``Session(...)``, ``prepare`` / ``execute(..., naive_tags=)``
    and the service accept are :meth:`replace` overrides into it.  A
    :class:`~repro.engine.session.PreparedPlan` carries the instance it was
    planned under, and the plan cache hashes :attr:`material`, so a field
    added here is part of the cache key by construction.

    Attributes:
        cost_params: cost-model constants used by the planners.
        three_valued: plan (and evaluate) under SQL three-valued logic.
        stats_sample_size: rows sampled per table when measuring predicate
            selectivities (Section 4.1).
        access_paths: consult the catalog's access-path layer (zone maps and
            secondary indexes) when planning and prune scans with it when
            executing.  Pruning is sound — rows are byte-identical either
            way — it only changes which pages are touched.
        naive_tags: build tag maps without pruning or generalization (the
            tag blow-up ablation).
    """

    cost_params: CostParams = field(default_factory=CostParams)
    three_valued: bool = True
    stats_sample_size: int = 20_000
    access_paths: bool = True
    naive_tags: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.cost_params, CostParams):
            raise TypeError(
                f"cost_params must be a CostParams, got {type(self.cost_params).__name__}"
            )
        if self.stats_sample_size < 1:
            raise ValueError(
                f"stats_sample_size must be positive, got {self.stats_sample_size}"
            )

    def replace(self, **overrides) -> "PlanOptions":
        """These options with every non-``None`` override applied (validated).

        Returns ``self`` when nothing changes, so resolving the options of a
        call that overrides none is a constant-time read.
        """
        changes = {}
        for name, value in overrides.items():
            if name not in PLAN_OPTION_NAMES:
                raise TypeError(f"unknown planning option {name!r}")
            if value is not None and getattr(self, name) != value:
                changes[name] = value
        return dataclasses.replace(self, **changes) if changes else self

    @cached_property
    def material(self) -> str:
        """Every field as ``name=repr`` text: the options' share of a plan
        fingerprint, computed once per instance."""
        return "\x1f".join(
            f"{name}={getattr(self, name)!r}" for name in sorted(PLAN_OPTION_NAMES)
        )


#: The names :meth:`PlanOptions.replace` accepts (``Session`` routes keyword
#: overrides by them).
PLAN_OPTION_NAMES = frozenset(f.name for f in dataclasses.fields(PlanOptions))


@dataclass
class PlannerContext:
    """Everything a planner needs to know about one query."""

    query: Query
    catalog: Catalog
    estimates: "EstimateProvider"
    predicate_tree: PredicateTree | None
    options: PlanOptions = PlanOptions()

    def __post_init__(self) -> None:
        self._tag_maps = TagMapBuilder(
            self.predicate_tree,
            naive=self.options.naive_tags,
            three_valued=self.options.three_valued,
        )
        self._planned: dict[type, PlannerResult] = {}

    @classmethod
    def for_query(
        cls,
        query: Query,
        catalog: Catalog,
        options: PlanOptions = PlanOptions(),
        stats_provider=None,
        selectivity_overrides=None,
        access_manager=None,
    ) -> "PlannerContext":
        """Build the estimate provider and predicate tree for ``query``.

        ``stats_provider``, ``selectivity_overrides`` and ``access_manager``
        are forwarded to
        :func:`repro.optimizer.estimates.build_estimate_provider`; see there
        for their meaning.  ``selectivity_overrides`` is how the service
        layer injects runtime-observed selectivities when re-planning;
        ``access_manager`` is an opaque handle this package never inspects —
        access-path choices reach planners only through the provider.
        """
        # Imported lazily: the optimizer package imports the cost model from
        # this package, so a module-level import would be circular.
        from repro.optimizer.estimates import build_estimate_provider

        estimates = build_estimate_provider(
            query,
            catalog,
            options,
            stats_provider=stats_provider,
            selectivity_overrides=selectivity_overrides,
            access_manager=access_manager,
        )
        tree = PredicateTree(query.predicate) if query.predicate is not None else None
        return cls(query, catalog, estimates, tree, options)

    # ------------------------------------------------------------------ #
    # Helpers shared by the planners
    # ------------------------------------------------------------------ #
    def tag_map_builder(self) -> TagMapBuilder:
        """The query's tag-map builder, shared by every planner and candidate."""
        return self._tag_maps

    def planned(self, planner_class: type[TaggedPlanner]) -> PlannerResult:
        """``planner_class``'s result for this query, planned once per context.

        TCombined reads its candidates here and TPullup its TPushdown base
        plan, so a plan both need is built and costed once.
        """
        result = self._planned.get(planner_class)
        if result is None:
            result = self._planned[planner_class] = planner_class(self).plan()
        return result

    def single_table_alias(self, expr: BooleanExpr) -> str | None:
        """The single alias referenced by ``expr``, or None when it spans tables."""
        aliases = expr.tables()
        if len(aliases) == 1:
            return next(iter(aliases))
        return None

    def order_filters(self, filters: list[BooleanExpr]) -> list[BooleanExpr]:
        """Sort filters in benefiting order (Appendix A)."""
        return benefiting_order(self.predicate_tree, filters, self.estimates)

    def pushdown_placement(self) -> tuple[dict[str, list[BooleanExpr]], list[BooleanExpr]]:
        """TPushdown's filter placement (Section 4.2).

        Returns each alias's single-table base predicates, and the base
        predicates spanning several tables (which run after the joins), each
        list in benefiting order.
        """
        per_alias: dict[str, list[BooleanExpr]] = {alias: [] for alias in self.query.aliases}
        multi_table: list[BooleanExpr] = []
        if self.predicate_tree is not None:
            for predicate in self.predicate_tree.base_predicates():
                alias = self.single_table_alias(predicate)
                if alias in per_alias:
                    per_alias[alias].append(predicate)
                else:
                    multi_table.append(predicate)
        ordered = {alias: self.order_filters(filters) for alias, filters in per_alias.items()}
        return ordered, self.order_filters(multi_table)

    def effective_alias_rows(
        self, alias: str, pushed: list[BooleanExpr], disjunctive: bool
    ) -> float:
        """Estimated rows of ``alias`` surviving its pushed filters.

        In tagged execution, pushing the predicates of a disjunctive query
        keeps every tuple that satisfies *any* of them (the others are
        dropped by precept (1)), so the surviving fraction is the selectivity
        of their disjunction; conjunctive pushes multiply selectivities.
        """
        if disjunctive and len(pushed) > 1:
            return self.estimates.base_rows(alias) * self.estimates.selectivity(or_(*pushed))
        return self.estimates.filtered_rows(alias, pushed)


@dataclass
class PlannerResult:
    """A planned query, whichever planner family produced it.

    Attributes:
        planner_name: the planner that chose the plan.
        kind: execution model — ``"tagged"`` or ``"traditional"``.
        roots: the logical tree(s) execution compiles — one per root clause
            for BDisj (unioned when there are several), otherwise one.
        annotations: tag maps for tagged plans, ``None`` otherwise.
        node_rows: estimated output rows per plan node id (the cost model's
            tag-aware numbers for tagged plans, the generic bottom-up walk
            otherwise); ``--explain-analyze`` lines them up against observed
            rows.
        estimated_cost: the tagged cost model's total (``None`` for the
            untagged planners, which do no cost-based search).
    """

    planner_name: str
    kind: str
    roots: list[PlanNode]
    annotations: PlanTagAnnotations | None
    node_rows: dict[int, float] = field(default_factory=dict)
    estimated_cost: float | None = None

    @property
    def plan(self) -> PlanNode:
        """The plan tree of a single-rooted result."""
        (root,) = self.roots
        return root

    @property
    def estimated_output_rows(self) -> float:
        """Estimated output cardinality: the roots' ``node_rows`` summed
        (over-counts rows several BDisj clauses match; good enough for drift
        detection)."""
        return sum(self.node_rows.get(root.node_id, 0.0) for root in self.roots)

    def description(self) -> str:
        """Pretty-printed plan tree(s), as shown by ``explain``."""
        return "\n---\n".join(plan_to_string(root) for root in self.roots)


class TaggedPlanner:
    """Base class of the planners (tagged unless a subclass says otherwise)."""

    name = "tagged"
    #: Execution model of the plans this planner returns.
    kind = "tagged"

    def __init__(self, context: PlannerContext) -> None:
        self.context = context

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def build_plan(self) -> PlanNode:
        """The one logical plan of a planner that does not search."""
        raise NotImplementedError

    def plan(self) -> PlannerResult:
        """The chosen plan with its tag maps, estimated cost and row counts.

        This costs :meth:`build_plan`'s tree; a searching planner overrides
        it and returns the result it already costed for its pick.
        """
        return self.cost(self.build_plan())

    def untagged_result(self, roots: list[PlanNode]) -> PlannerResult:
        """The result of a planner whose trees execute without tag maps."""
        from repro.optimizer.estimates import estimate_plan_rows

        node_rows: dict[int, float] = {}
        for root in roots:
            node_rows.update(estimate_plan_rows(root, self.context.estimates))
        return PlannerResult(self.name, self.kind, roots, None, node_rows)

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def cost(self, plan: PlanNode) -> PlannerResult:
        """A candidate plan as this planner's result: its tag maps, its
        estimated cost and its per-node row estimates."""
        annotations = self.context.tag_map_builder().build(plan)
        breakdown = estimate_plan_cost(plan, annotations, self.context.estimates)
        return PlannerResult(
            self.name,
            self.kind,
            [plan],
            annotations,
            breakdown.node_rows,
            breakdown.total,
        )

    def scan_node(self, alias: str) -> TableScanNode:
        """A scan node for ``alias``."""
        return TableScanNode(alias, self.context.query.tables[alias])

    def stack_filters(self, node: PlanNode, filters: list[BooleanExpr]) -> PlanNode:
        """Wrap ``node`` in filter nodes, innermost first."""
        for predicate in filters:
            node = FilterNode(predicate, node)
        return node

    def finish(self, node: PlanNode) -> PlanNode:
        """Add the projection root."""
        return ProjectNode(node, self.context.query.select)
