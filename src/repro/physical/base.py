"""The physical-operator protocol: ``open() / next_batch() / close()``.

Every physical operator — for both execution models — implements the same
batched pull contract:

* :meth:`PhysicalOperator.open` binds the operator (and, recursively, its
  children) to one :class:`~repro.engine.metrics.ExecContext`;
* :meth:`PhysicalOperator.next_batch` returns the next batch of output, or
  ``None`` when the operator is exhausted;
* :meth:`PhysicalOperator.close` releases per-execution state, making the
  operator reusable for another ``open``.

A *batch* is the operators' relation payload: a
:class:`~repro.core.tagged_relation.TaggedRelation` between the scans, filters
and joins (which run tagged and traditional plans alike), and
:class:`~repro.engine.result.OutputColumns` at the root of every tree.  Both
batch types own an order-preserving ``merge(batches)``.  The morsel-driven
driver (:mod:`repro.engine.parallel`) runs one operator tree per table
partition and merges the root batches in partition order, which is what makes
parallel output byte-identical to serial output.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.engine.metrics import ExecContext

Batch = TypeVar("Batch")


class PhysicalOperator(Generic[Batch]):
    """Abstract base of every physical operator.

    Subclasses override :meth:`_next`; ``open``/``close`` recurse through
    :attr:`children` by default and subclasses extend them for private state.
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
        self._context: ExecContext | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def open(self, context: ExecContext) -> None:
        """Bind the operator tree to an execution context."""
        self._context = context
        for child in self.children:
            child.open(context)

    def next_batch(self) -> Batch | None:
        """The next output batch, or ``None`` once exhausted.

        When the context carries a tracer the call is timed (inclusive and
        self time, accumulated per operator for EXPLAIN ANALYZE and the
        trace export); the untraced path pays exactly one ``None`` test.
        """
        context = self._context
        if context is None:
            raise RuntimeError(
                f"{type(self).__name__}.next_batch() called before open()"
            )
        tracer = context.tracer
        if tracer is None:
            return self._next(context)
        started = tracer.op_enter()
        try:
            return self._next(context)
        finally:
            tracer.op_exit(
                self.node_id if self.node_id is not None else -1,
                self.label,
                started,
            )

    def close(self) -> None:
        """Release per-execution state (recursively)."""
        for child in self.children:
            child.close()
        self._context = None

    # ------------------------------------------------------------------ #
    # Subclass contract
    # ------------------------------------------------------------------ #
    def _next(self, context: ExecContext) -> Batch | None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Observation helpers
    # ------------------------------------------------------------------ #
    def record_rows(self, context: ExecContext, rows_in: int, rows_out: int) -> None:
        """Record actual rows in/out for this operator (feedback runs only)."""
        if context.collect_feedback and self.node_id is not None:
            context.metrics.record_operator(self.node_id, rows_in, rows_out)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def drain(self) -> list[Batch]:
        """Pull every remaining batch (the operator must be open)."""
        batches: list[Batch] = []
        while True:
            batch = self.next_batch()
            if batch is None:
                return batches
            batches.append(batch)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(children={len(self.children)})"

