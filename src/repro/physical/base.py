"""The physical-operator protocol: ``open() / next_batch() / close()``.

Every physical operator — for all three execution models — implements the
same batched pull contract:

* :meth:`PhysicalOperator.open` binds the operator (and, recursively, its
  children) to one :class:`~repro.engine.metrics.ExecContext`;
* :meth:`PhysicalOperator.next_batch` returns the next batch of output, or
  ``None`` when the operator is exhausted;
* :meth:`PhysicalOperator.close` releases per-execution state, making the
  operator reusable for another ``open``.

A *batch* is the operators' relation payload: a
:class:`~repro.core.tagged_relation.TaggedRelation` for the tagged operators
(which run tagged and traditional plans alike), a
:class:`~repro.bypass.streams.StreamSet` of one-slice tagged relations for
bypass operators, and
:class:`~repro.engine.result.OutputColumns` at the root of every tree.  Each
batch type owns ``live_rows`` (its live tuple count) and an order-preserving
``merge(batches)``; ``TaggedRelation`` and ``StreamSet`` also own
``from_scan``.  The
morsel-driven driver (:mod:`repro.engine.parallel`) runs one operator tree
per table partition and merges the root batches in partition order, which is
what makes parallel output byte-identical to serial output.

The streaming halves of the contract live here once — :class:`StreamingFilter`
(one output batch per input batch) and :class:`BuildProbeJoin` (drain and
merge the build side, stream the probe side).  Each execution model's filter,
join and root class *is* one of these, supplying only its whole-batch kernel
``execute(...)``.
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


class StreamingFilter(PhysicalOperator):
    """One output batch per input batch, through the subclass's ``execute(batch, context)``."""

    label = "FilterPhysical"

    def __init__(
        self, child: PhysicalOperator | None = None, node_id: int | None = None
    ) -> None:
        super().__init__([child], node_id=node_id)

    def _next(self, context: ExecContext):
        batch = self.children[0].next_batch()
        if batch is None:
            return None
        output = self.execute(batch, context)
        if context.collect_feedback:
            self.record_rows(context, batch.live_rows, output.live_rows)
        return output


class BuildProbeJoin(PhysicalOperator):
    """Hash join shape: the build (left) child is drained and merged once, the
    probe child streamed through the subclass's ``execute(build, probe, context)``."""

    label = "JoinPhysical"

    def __init__(
        self,
        build: PhysicalOperator | None = None,
        probe: PhysicalOperator | None = None,
        node_id: int | None = None,
    ) -> None:
        super().__init__([build, probe], node_id=node_id)
        self._build_batch = None

    def open(self, context: ExecContext) -> None:
        super().open(context)
        self._build_batch = None

    def close(self) -> None:
        super().close()
        self._build_batch = None

    def _next(self, context: ExecContext):
        if self._build_batch is None:
            build_batches = self.children[0].drain()
            if not build_batches:
                return None
            self._build_batch = type(build_batches[0]).merge(build_batches)
            if context.collect_feedback:
                self.record_rows(context, self._build_batch.live_rows, 0)
        probe_batch = self.children[1].next_batch()
        if probe_batch is None:
            return None
        output = self.execute(self._build_batch, probe_batch, context)
        if context.collect_feedback:
            self.record_rows(context, probe_batch.live_rows, output.live_rows)
        return output
