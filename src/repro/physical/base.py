"""The physical-operator protocol: one ``run(context)`` call per operator.

Every physical operator — for both execution models — computes its output
whole, as Basilisk does (Section 2.5): :meth:`PhysicalOperator.run` runs the
children the operator needs, each once, and returns the operator's single
output.  A join runs its build subtree, then its probe subtree; a union runs
its children in order.

The output is a :class:`~repro.core.tagged_relation.TaggedRelation` between
the scans, filters and joins (which run tagged and traditional plans alike),
and :class:`~repro.engine.result.OutputColumns` at the root of every tree.
The morsel-driven driver (:mod:`repro.engine.parallel`) runs one operator
tree per table partition and merges the root outputs in partition order,
which is what makes parallel output byte-identical to serial output.
"""

from __future__ import annotations

from repro.engine.metrics import ExecContext


class PhysicalOperator:
    """Abstract base of every physical operator.

    Subclasses override :meth:`_run`, which runs :attr:`children` itself.
    """

    #: Name tracing reports the operator under (``operator:<label>#<node>``);
    #: consumers fold by its ``Scan`` / ``Filter`` / ``Join`` prefix.
    label = "Physical"

    def __init__(
        self,
        children: list["PhysicalOperator"] | None = None,
        node_id: int | None = None,
    ) -> None:
        # ``None`` inputs are dropped: a model operator built without them is
        # just its kernel (``execute(...)`` called directly).
        self.children: list[PhysicalOperator] = [
            child for child in children or [] if child is not None
        ]
        #: Logical plan node this operator was compiled from (``None`` for
        #: hand-built trees).  Keys the per-operator actual-row counters that
        #: ``--explain-analyze`` and the feedback loop consume.
        self.node_id = node_id

    def run(self, context: ExecContext):
        """Run the operator (and its subtree) once; returns its output.

        When the context carries a tracer the call is timed (inclusive and
        self time, accumulated per operator for EXPLAIN ANALYZE and the
        trace export); the untraced path pays exactly one ``None`` test.
        """
        tracer = context.tracer
        if tracer is None:
            return self._run(context)
        started = tracer.op_enter()
        try:
            return self._run(context)
        finally:
            tracer.op_exit(
                self.node_id if self.node_id is not None else -1,
                self.label,
                started,
            )

    def _run(self, context: ExecContext):
        raise NotImplementedError

    def record_rows(self, context: ExecContext, rows_in: int, rows_out: int) -> None:
        """Record actual rows in/out for this operator (feedback runs only)."""
        if context.collect_feedback and self.node_id is not None:
            context.metrics.record_operator(self.node_id, rows_in, rows_out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(children={len(self.children)})"
