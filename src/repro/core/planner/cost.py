"""Cost models for tagged plans (Section 4.1).

The cost of a tagged plan is the sum of its operators' costs, where each
operator only pays for the relational slices its tag map touches:

* filter: ``alpha * sum over matching slices of F_P * |slice|``
* join:   hash-build + hash-lookup + index-build over the participating
  slices, with the output cardinality estimated PostgreSQL-style.

Per-slice cardinalities are estimated bottom-up with the same tag maps the
executor will use, multiplying slice sizes by predicate selectivities under
the independence assumption.  There is one walk per candidate: the tag-map
builder (:meth:`repro.core.tagmap.TagMapBuilder.build`) hands each operator
to a :class:`PlanCost` right after building its tag map, and stops the walk
once the running total exceeds the caller's bound — the plan has then lost
to a cheaper one already, and its remaining operators are neither mapped
nor costed.  Every number comes from a single
:class:`~repro.optimizer.estimates.EstimateProvider` — the unified
estimation layer all planners share — so feedback-corrected selectivities
flow into costing without any changes here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tagmap import FilterTagMap, JoinTagMap
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
    *access paths*, never join orders.  Every constant must be non-negative:
    a cost term then never lowers the running total, which is what lets a
    search stop costing a candidate once it has lost.
    """

    alpha: float = 1.0
    f_hash_lookup: float = 1.0
    f_hash_build: float = 2.0
    f_index_build: float = 1.0
    f_page_io: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not value >= 0.0:
                raise ValueError(f"cost constant {name} must be non-negative, got {value!r}")


class PlanCost:
    """One candidate's cost, summed operator by operator.

    :meth:`~repro.core.tagmap.TagMapBuilder.build` walks a plan once, in
    post-order, and hands each operator to this object right after building
    its tag map: :meth:`scan`, :meth:`filter`, :meth:`join` and
    :meth:`project` return the operator's estimated rows per output tag and
    add its term.  Every term is non-negative, so :attr:`total` only grows
    during the walk and the builder can stop once it exceeds a bound.

    ``node_rows`` maps each plan node id to its estimated output rows
    (summed over tags); the session stores it on prepared plans so
    ``--explain-analyze`` can line estimates up against actuals.
    """

    def __init__(self, estimates, params: CostParams | None = None) -> None:
        self.estimates = estimates
        self.params = params or estimates.cost_params
        self.total = 0.0
        self.filter_cost = 0.0
        self.join_cost = 0.0
        self.scan_cost = 0.0
        self.node_rows: dict[int, float] = {}

    def scan(self, node: TableScanNode) -> dict[Tag, float]:
        """A scan's rows, and its per-leaf I/O term under the chosen access
        path (full / zone-pruned / index scan); providers without access-path
        awareness (test doubles) simply contribute no scan term."""
        output = {Tag.empty(): self.estimates.base_rows(node.alias)}
        scan_pages = getattr(self.estimates, "scan_pages", None)
        if scan_pages is not None:
            amount = self.params.f_page_io * float(scan_pages(node.alias))
            self.scan_cost += amount
            self.total += amount
        return self._rows(node, output)

    def filter(
        self, node: FilterNode, tag_map: FilterTagMap, input_rows: dict[Tag, float]
    ) -> dict[Tag, float]:
        """A filter's rows per output tag; it pays for the slices it splits."""
        estimates = self.estimates
        predicate_selectivity = estimates.selectivity(node.predicate)
        cost_factor = estimates.cost_factor(node.predicate)

        output: dict[Tag, float] = {}

        def accumulate(tag: Tag, rows: float) -> None:
            output[tag] = output.get(tag, 0.0) + rows

        rows_evaluated = 0.0
        for in_tag, rows in input_rows.items():
            entry = tag_map.entries.get(in_tag)
            if entry is None:
                accumulate(in_tag, rows)
                continue
            rows_evaluated += rows
            if entry.pos_tag is not None:
                accumulate(entry.pos_tag, rows * predicate_selectivity)
            if entry.neg_tag is not None:
                accumulate(entry.neg_tag, rows * (1.0 - predicate_selectivity))
            # UNKNOWN outputs only materialize when the data has NULLs; they
            # are treated as negligible for costing.

        amount = self.params.alpha * cost_factor * rows_evaluated
        self.filter_cost += amount
        self.total += amount
        return self._rows(node, output)

    def join(
        self,
        node: JoinNode,
        tag_map: JoinTagMap,
        left_rows: dict[Tag, float],
        right_rows: dict[Tag, float],
    ) -> dict[Tag, float]:
        """A join's rows per output tag; hash build, hash lookup and index
        build over the participating slices."""
        output: dict[Tag, float] = {}
        if not tag_map.entries:
            return self._rows(node, output)
        estimates = self.estimates
        params = self.params

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

        amount = hash_build + hash_lookup + params.f_index_build * output_total
        self.join_cost += amount
        self.total += amount
        return self._rows(node, output)

    def project(self, node: ProjectNode, input_rows: dict[Tag, float]) -> dict[Tag, float]:
        """The projection's rows: its input's, at no cost."""
        return self._rows(node, input_rows)

    def _rows(self, node: PlanNode, output: dict[Tag, float]) -> dict[Tag, float]:
        self.node_rows[node.node_id] = sum(output.values())
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
