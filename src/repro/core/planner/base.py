"""Shared planner infrastructure.

:class:`PlanOptions` is the single definition of what a plan depends on
besides the query and the data: the planner reads it and the plan cache
hashes it (:func:`repro.service.fingerprint.query_fingerprint`).

:class:`PlannerContext` bundles everything a planner needs about one query:
the query itself, the options, its tag-map builder (with the predicate tree,
both from the session's :class:`~repro.core.tagmap.TagAlgebraMemo`) and a
single
:class:`~repro.optimizer.estimates.EstimateProvider` supplying all planning
numbers (table statistics, per-expression selectivities, cost constants).
Planners never construct estimators themselves — the provider is built by
:func:`repro.optimizer.estimates.build_estimate_provider` and may carry
feedback-corrected selectivity overrides injected by the service layer.

:class:`TaggedPlanner` is the base class of every planner.  A planner
with one fixed plan implements :meth:`TaggedPlanner.build_plan`; a
searching planner overrides :meth:`TaggedPlanner.plan` and returns the
result its search already costed for its pick.  Every candidate goes
through :meth:`TaggedPlanner.cost` once; TPullup and TIterPush pass their
running best as its bound, so a candidate that has lost is not costed to
the end.  Planners split predicates by table with
:meth:`PlannerContext.split_by_alias` and build their scans, stacked
filters and greedy joins with :meth:`TaggedPlanner.join_leaves`.  The
untagged (traditional) planners reuse these helpers and finish through
:meth:`TaggedPlanner.untagged_result`.  All of them return one
:class:`PlannerResult`.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.core.planner.benefit import benefiting_order
from repro.core.planner.cost import CostParams, PlanCost
from repro.core.planner.joinorder import greedy_join_tree
from repro.core.predtree import PredicateTree
from repro.core.tagmap import PlanTagAnnotations, TagAlgebraMemo, TagMapBuilder
from repro.expr.ast import AndExpr, BooleanExpr
from repro.expr.builders import or_
from repro.plan.logical import (
    FilterNode,
    PlanNode,
    ProjectNode,
    TableScanNode,
    plan_to_string,
)
from repro.plan.query import Query
from repro.stats.selectivity import DEFAULT_SAMPLE_SIZE
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.optimizer.estimates import EstimateProvider
    from repro.service.stats_cache import StatsCache


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
    stats_sample_size: int = DEFAULT_SAMPLE_SIZE
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


def conjuncts(clause: BooleanExpr | None) -> list[BooleanExpr]:
    """The conjuncts of ``clause``: an AND's children, any other clause
    itself, none for ``None``."""
    if clause is None:
        return []
    return list(clause.children()) if isinstance(clause, AndExpr) else [clause]


@dataclass
class PlannerContext:
    """Everything a planner needs to know about one query."""

    query: Query
    catalog: Catalog
    estimates: "EstimateProvider"
    #: The query's tag-map builder, shared by every planner and candidate.
    tag_maps: TagMapBuilder
    options: PlanOptions = PlanOptions()

    def __post_init__(self) -> None:
        self._planned: dict[type, PlannerResult] = {}

    @property
    def predicate_tree(self) -> PredicateTree | None:
        """The query's predicate tree (``None`` without WHERE)."""
        return self.tag_maps.tree

    @classmethod
    def for_query(
        cls,
        query: Query,
        catalog: Catalog,
        options: PlanOptions = PlanOptions(),
        stats_cache: StatsCache | None = None,
        selectivity_overrides=None,
        access_manager=None,
        tag_memo: TagAlgebraMemo | None = None,
    ) -> "PlannerContext":
        """Build the estimate provider and tag-map builder for ``query``.

        The builder comes from ``tag_memo`` (a session's
        :class:`~repro.core.tagmap.TagAlgebraMemo`), which reuses the
        predicate tree and tag maps of an earlier prepare of the same
        predicate; ``None`` plans from an empty one.  Likewise
        ``stats_cache`` (a session's
        :class:`~repro.service.stats_cache.StatsCache`) supplies the
        statistics, samples and measurements of earlier prepares; ``None``
        plans from a fresh one.

        The tag algebra is three-valued exactly when some WHERE predicate
        can be UNKNOWN on ``catalog``'s tables
        (:meth:`~repro.plan.query.Query.can_be_unknown`), so ``catalog``
        should hold the tables the plan will execute on: ``Session.prepare``
        passes the snapshot it pins.

        ``stats_cache``, ``selectivity_overrides`` and ``access_manager``
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
            stats_cache=stats_cache,
            selectivity_overrides=selectivity_overrides,
            access_manager=access_manager,
        )
        if tag_memo is None:
            tag_memo = TagAlgebraMemo(1)
        tag_maps = tag_memo.builder(
            query.predicate, options.naive_tags, query.can_be_unknown(catalog)
        )
        return cls(query, catalog, estimates, tag_maps, options)

    # ------------------------------------------------------------------ #
    # Helpers shared by the planners
    # ------------------------------------------------------------------ #
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

    def selectivity_order(self, filters: list[BooleanExpr]) -> list[BooleanExpr]:
        """Sort filters most selective first (ties by key), the order a
        conventional conjunctive planner applies them in."""
        return sorted(filters, key=lambda expr: (self.estimates.selectivity(expr), expr.key()))

    def split_by_alias(
        self, predicates: Iterable[BooleanExpr]
    ) -> tuple[dict[str, list[BooleanExpr]], list[BooleanExpr]]:
        """Each alias's single-table ``predicates`` (keyed in ``query.aliases``
        order) and the ones spanning several tables, both in input order."""
        per_alias: dict[str, list[BooleanExpr]] = {alias: [] for alias in self.query.aliases}
        rest: list[BooleanExpr] = []
        for predicate in predicates:
            alias = self.single_table_alias(predicate)
            if alias in per_alias:
                per_alias[alias].append(predicate)
            else:
                rest.append(predicate)
        return per_alias, rest

    def pushdown_placement(self) -> tuple[dict[str, list[BooleanExpr]], list[BooleanExpr]]:
        """TPushdown's filter placement (Section 4.2).

        Returns each alias's single-table base predicates, and the base
        predicates spanning several tables (which run after the joins), each
        list in benefiting order.
        """
        tree = self.predicate_tree
        per_alias, multi_table = self.split_by_alias(
            tree.base_predicates() if tree is not None else []
        )
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
    def cost(self, plan: PlanNode, bound: float = math.inf) -> PlannerResult | None:
        """A candidate plan as this planner's result: its tag maps, its
        estimated cost and its per-node row estimates.

        A search passes its running best as ``bound``: the candidate is then
        abandoned — ``None`` is returned — as soon as its cost so far is
        strictly greater (see :meth:`~repro.core.tagmap.TagMapBuilder.build`).
        """
        cost = PlanCost(self.context.estimates)
        annotations = self.context.tag_maps.build(plan, cost, bound)
        if annotations is None:
            return None
        return PlannerResult(
            self.name, self.kind, [plan], annotations, cost.node_rows, cost.total
        )

    def scan_node(self, alias: str) -> TableScanNode:
        """A scan node for ``alias``."""
        return TableScanNode(alias, self.context.query.tables[alias])

    def stack_filters(self, node: PlanNode, filters: list[BooleanExpr]) -> PlanNode:
        """Wrap ``node`` in filter nodes, innermost first."""
        for predicate in filters:
            node = FilterNode(predicate, node)
        return node

    def join_leaves(
        self, pushed: dict[str, list[BooleanExpr]], disjunctive: bool = False
    ) -> PlanNode:
        """Every alias's scan under its ``pushed`` filters (innermost first),
        joined greedily on the leaves' estimated rows
        (:meth:`PlannerContext.effective_alias_rows`)."""
        context = self.context
        leaf_plans: dict[str, PlanNode] = {}
        estimated_rows: dict[str, float] = {}
        for alias in context.query.aliases:
            filters = pushed.get(alias, [])
            leaf_plans[alias] = self.stack_filters(self.scan_node(alias), filters)
            estimated_rows[alias] = context.effective_alias_rows(alias, filters, disjunctive)
        return greedy_join_tree(context.query, leaf_plans, estimated_rows, context.estimates)

    def finish(self, node: PlanNode) -> PlanNode:
        """Add the projection root."""
        return ProjectNode(node, self.context.query.select)
