"""``EXPLAIN ANALYZE``-style reporting: estimated vs. actual rows per operator.

:func:`explain_analyze_report` lines up the planner's per-node row estimates
(stored on a :class:`~repro.engine.session.PreparedPlan`) against the row
counts the physical operators actually observed (recorded into
:attr:`~repro.engine.metrics.ExecutionMetrics.operator_actuals` when the
execution context runs with ``collect_feedback=True``).  Large gaps in the
``est.rows`` / ``act.out`` columns are exactly the misestimates the feedback
loop corrects.
"""

from __future__ import annotations

from repro.expr.ast import AndExpr, OrExpr
from repro.plan.logical import FilterNode, PlanNode, TableScanNode


def _format_rows(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.1f}"
    return str(int(value))


def _format_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.4f}"


def _format_rate(rows: float | None, seconds: float | None) -> str:
    if rows is None or seconds is None or seconds <= 0.0:
        return "-"
    return f"{rows / seconds:,.0f}"


def explain_analyze_report(prepared, result) -> str:
    """A per-operator table of estimated vs. actual rows for one execution.

    Args:
        prepared: the :class:`~repro.engine.session.PreparedPlan` that ran
            (supplies the plan tree and per-node row estimates).
        result: the :class:`~repro.engine.result.QueryResult` of executing it
            with ``collect_feedback=True`` (supplies per-operator actuals;
            without feedback collection the actual columns show ``-``).

    Actual counts are *summed over operator invocations*: under partitioned
    execution a join's build side re-runs per morsel, so its actuals can
    exceed the serial row counts — the columns report work done, not
    distinct tuples.

    Scan rows carry an extra ``pruned`` column (``pages pruned / pages in
    range``) plus the chosen access path, fed by the per-scan pruning
    counters and the prepared plan's
    :class:`~repro.access.chooser.QueryAccessPlan`; ``-`` means the scan ran
    unpruned (full access path, or access paths disabled).

    When the execution was traced (``result.trace`` is set), two more
    columns report wall-clock per operator: ``actual s`` — the operator's
    inclusive ``run`` seconds, summed over invocations and, under
    parallel execution, over workers (so it measures work, like the row
    counts) — and ``rows/s`` (``act.out`` over those seconds).  Untraced
    executions show ``-`` in both.
    """
    actuals = result.metrics.operator_actuals
    estimates = prepared.estimated_rows
    pruning = result.metrics.scan_pruning
    access_plan = prepared.access_plan
    trace = getattr(result, "trace", None)
    timings = trace.operator_timings() if trace is not None else {}
    rows: list[tuple[str, str, str, str, str, str, str]] = []

    def clause_order_annotation(node: FilterNode) -> str:
        """The fused kernels' clause evaluation order for a filter node.

        Rendered as 1-based positions into the predicate's written child
        order (``3→1→2`` means the third conjunct runs first).  Empty when
        the predicate has a single clause.
        """
        predicate = node.predicate
        if not isinstance(predicate, (AndExpr, OrExpr)):
            return ""
        from repro.kernels.fused import ordered_children

        written = {id(child): i + 1 for i, child in enumerate(predicate.children())}
        ordered = ordered_children(predicate, prepared.clause_selectivities)
        return " [clause order: " + "→".join(str(written[id(c)]) for c in ordered) + "]"

    def scan_annotation(node: TableScanNode) -> tuple[str, str]:
        """(extra label text, pruned column) for a scan node."""
        choice = access_plan.choice(node.alias) if access_plan is not None else None
        label = ""
        if choice is not None and choice.kind != "full":
            label = f" [{choice.describe()}]"
        outcome = pruning.get(node.node_id)
        pruned = f"{outcome[1]}/{outcome[0]}" if outcome else "-"
        return label, pruned

    def walk(node: PlanNode, depth: int) -> None:
        label = "  " * depth + node.label()
        pruned = ""
        if isinstance(node, TableScanNode):
            extra, pruned = scan_annotation(node)
            label += extra
        elif isinstance(node, FilterNode):
            label += clause_order_annotation(node)
        actual = actuals.get(node.node_id)
        timing = timings.get(node.node_id)
        seconds = timing["seconds"] if timing is not None else None
        actual_out = actual[1] if actual else None
        rows.append(
            (
                label,
                _format_rows(estimates.get(node.node_id)),
                _format_rows(actual[0] if actual else None),
                _format_rows(actual_out),
                _format_seconds(seconds),
                _format_rate(actual_out, seconds),
                pruned,
            )
        )
        for child in node.children:
            walk(child, depth + 1)

    roots = prepared.roots
    for index, root in enumerate(roots):
        if index:
            rows.append(("---", "", "", "", "", "", ""))
        walk(root, 0)

    headers = ("operator", "est.rows", "act.in", "act.out", "actual s", "rows/s", "pruned")
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows))
        for column in range(len(headers))
    ]
    value_columns = tuple(range(1, len(headers)))
    lines = [
        "  ".join(
            (headers[0].ljust(widths[0]),)
            + tuple(headers[column].rjust(widths[column]) for column in value_columns)
        )
    ]
    for row in rows:
        lines.append(
            "  ".join(
                (row[0].ljust(widths[0]),)
                + tuple(row[column].rjust(widths[column]) for column in value_columns)
            )
        )
    summary = (
        f"planner={prepared.planner} estimated_output_rows="
        f"{_format_rows(prepared.estimated_output_rows)} "
        f"actual_output_rows={result.metrics.output_rows} "
        f"pages_pruned={result.metrics.pages_pruned}"
        + "".join(f" {name}={count}" for name, count in prepared.planning_work.items())
    )
    return "\n".join(lines + [summary])
