"""Cost models for tagged plans (Section 4.1).

The cost of a tagged plan is the sum of its operators' costs, where each
operator only pays for the relational slices its tag map touches:

* filter: ``alpha * sum over matching slices of F_P * |slice|``
* join:   hash-build + hash-lookup + index-build over the participating
  slices, with the output cardinality estimated PostgreSQL-style.

Per-slice cardinalities are estimated by walking the plan bottom-up with the
same tag maps the executor will use, multiplying slice sizes by predicate
selectivities under the independence assumption.  Every number comes from a
single :class:`~repro.optimizer.estimates.EstimateProvider` — the unified
estimation layer all planners share — so feedback-corrected selectivities
flow into costing without any changes here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tagmap import PlanTagAnnotations
from repro.core.tags import Tag
from repro.plan.logical import FilterNode, JoinNode, PlanNode, ProjectNode, TableScanNode
from repro.plan.query import JoinCondition


@dataclass(frozen=True)
class CostParams:
    """Cost-model calibration constants.

    ``alpha`` calibrates filter costs against join costs; the ``f_*``
    constants are the per-row cost factors of the join components.
    ``f_page_io`` weighs the per-leaf scan I/O term (estimated pages touched
    under the chosen access path — full, zone-pruned or index scan).  Every
    candidate plan for one query scans the same aliases, so the term shifts
    plan costs uniformly within a planner's search and only differentiates
    *access paths*, never join orders.
    """

    alpha: float = 1.0
    f_hash_lookup: float = 1.0
    f_hash_build: float = 2.0
    f_index_build: float = 1.0
    f_page_io: float = 1.0


@dataclass
class PlanCostBreakdown:
    """Total plan cost plus per-operator contributions.

    ``node_rows`` maps each plan node id to its estimated output rows
    (summed over tags); the session stores it on prepared plans so
    ``--explain-analyze`` can line estimates up against actuals.
    """

    total: float = 0.0
    filter_cost: float = 0.0
    join_cost: float = 0.0
    scan_cost: float = 0.0
    node_rows: dict[int, float] = field(default_factory=dict)

    def add_filter(self, amount: float) -> None:
        self.filter_cost += amount
        self.total += amount

    def add_join(self, amount: float) -> None:
        self.join_cost += amount
        self.total += amount

    def add_scan(self, amount: float) -> None:
        self.scan_cost += amount
        self.total += amount


def estimate_plan_cost(
    plan: PlanNode,
    annotations: PlanTagAnnotations,
    estimates,
    params: CostParams | None = None,
) -> PlanCostBreakdown:
    """Estimate the execution cost of a tagged plan.

    ``annotations`` must have been produced for exactly this plan (the tag
    maps are looked up by node id).  ``estimates`` is the query's
    :class:`~repro.optimizer.estimates.EstimateProvider`; ``params``
    defaults to the provider's cost constants.
    """
    params = params or estimates.cost_params
    breakdown = PlanCostBreakdown()
    _estimate_node(plan, annotations, estimates, params, breakdown)
    return breakdown


def _estimate_node(
    node: PlanNode,
    annotations: PlanTagAnnotations,
    estimates,
    params: CostParams,
    breakdown: PlanCostBreakdown,
) -> dict[Tag, float]:
    """Return estimated rows per output tag of ``node``."""
    if isinstance(node, TableScanNode):
        output = {Tag.empty(): estimates.base_rows(node.alias)}
        # Per-leaf scan I/O under the chosen access path (full / zone-pruned
        # / index scan); providers without access-path awareness (test
        # doubles) simply contribute no scan term.
        scan_pages = getattr(estimates, "scan_pages", None)
        if scan_pages is not None:
            breakdown.add_scan(params.f_page_io * float(scan_pages(node.alias)))
    elif isinstance(node, FilterNode):
        input_rows = _estimate_node(
            node.child, annotations, estimates, params, breakdown
        )
        output = _estimate_filter(
            node, input_rows, annotations, estimates, params, breakdown
        )
    elif isinstance(node, JoinNode):
        left_rows = _estimate_node(node.left, annotations, estimates, params, breakdown)
        right_rows = _estimate_node(
            node.right, annotations, estimates, params, breakdown
        )
        output = _estimate_join(
            node, left_rows, right_rows, annotations, estimates, params, breakdown
        )
    elif isinstance(node, ProjectNode):
        output = _estimate_node(node.child, annotations, estimates, params, breakdown)
    else:
        raise TypeError(f"unknown plan node type: {type(node).__name__}")
    breakdown.node_rows[node.node_id] = sum(output.values())
    return output


def _estimate_filter(
    node: FilterNode,
    input_rows: dict[Tag, float],
    annotations: PlanTagAnnotations,
    estimates,
    params: CostParams,
    breakdown: PlanCostBreakdown,
) -> dict[Tag, float]:
    tag_map = annotations.filter_maps.get(node.node_id)
    predicate = node.predicate
    predicate_selectivity = estimates.selectivity(predicate)
    cost_factor = estimates.cost_factor(predicate)

    output: dict[Tag, float] = {}

    def accumulate(tag: Tag, rows: float) -> None:
        output[tag] = output.get(tag, 0.0) + rows

    rows_evaluated = 0.0
    for in_tag, rows in input_rows.items():
        entry = tag_map.entries.get(in_tag) if tag_map is not None else None
        if entry is None:
            accumulate(in_tag, rows)
            continue
        rows_evaluated += rows
        if entry.pos_tag is not None:
            accumulate(entry.pos_tag, rows * predicate_selectivity)
        if entry.neg_tag is not None:
            accumulate(entry.neg_tag, rows * (1.0 - predicate_selectivity))
        # UNKNOWN outputs only materialize when the data has NULLs; they are
        # treated as negligible for costing.

    breakdown.add_filter(params.alpha * cost_factor * rows_evaluated)
    return output


def _estimate_join(
    node: JoinNode,
    left_rows: dict[Tag, float],
    right_rows: dict[Tag, float],
    annotations: PlanTagAnnotations,
    estimates,
    params: CostParams,
    breakdown: PlanCostBreakdown,
) -> dict[Tag, float]:
    tag_map = annotations.join_maps.get(node.node_id)
    output: dict[Tag, float] = {}
    if tag_map is None or not tag_map.entries:
        return output

    participating_left = {tag for tag, _ in tag_map.entries} & set(left_rows)
    participating_right = {tag for _, tag in tag_map.entries} & set(right_rows)
    left_total = sum(left_rows[tag] for tag in participating_left)
    right_total = sum(right_rows[tag] for tag in participating_right)

    unique_left = _estimate_unique(left_total, node.conditions, estimates, side="left")
    hash_build = params.f_hash_lookup * left_total + params.f_hash_build * unique_left
    hash_lookup = params.f_hash_lookup * right_total

    output_total = 0.0
    for (left_tag, right_tag), out_tag in tag_map.entries.items():
        if left_tag not in left_rows or right_tag not in right_rows:
            continue
        pair_output = estimates.join_rows_multi(
            left_rows[left_tag], right_rows[right_tag], node.conditions
        )
        output[out_tag] = output.get(out_tag, 0.0) + pair_output
        output_total += pair_output

    index_build = params.f_index_build * output_total
    breakdown.add_join(hash_build + hash_lookup + index_build)
    return output


def _estimate_unique(
    rows: float,
    conditions: list[JoinCondition],
    estimates,
    side: str,
) -> float:
    """Estimated number of distinct join keys among ``rows`` input rows."""
    if not conditions:
        return rows
    condition = conditions[0]
    ref = condition.left if side == "left" else condition.right
    distinct = estimates.distinct_values(ref.alias, ref.column)
    return min(rows, distinct)
