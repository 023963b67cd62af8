"""The traditional root: BDisj's deduplicating union.

A traditional plan runs on the tagged operators with one-tag maps (every
relation is one slice under the empty tag, see
:mod:`repro.physical.compile`), so the only operator of its own is the root.
BDisj's union deduplicates tuples produced by different root-clause
subqueries — the redundant work the paper's Section 5.1 analysis attributes
to traditional execution.

``UnionOperator`` is a :class:`~repro.physical.base.PhysicalOperator`:
``run`` runs each subplan once, in order, and ``execute(...)`` is the union
kernel, callable on its own without children.
"""

from __future__ import annotations

import numpy as np

from repro.core.tagged_relation import TaggedRelation
from repro.core.tags import Tag
from repro.engine.metrics import ExecContext
from repro.engine.result import OutputColumns, materialize_output
from repro.physical.base import PhysicalOperator


class UnionOperator(PhysicalOperator):
    """Traditional root: union the subplan pipelines, then materialize ``columns``.

    Children are the pipelines of a traditional plan's roots; each runs once,
    in order (they are independent pipelines over the same partition), and
    the union emits one OutputColumns.  BDisj's union (``execute``)
    deduplicates the rows by the tuple of base-table row indices, which
    is exactly the identity of a joined tuple in an index relation; a lone
    subplan needs no union and passes through.
    """

    label = "TraditionalProjectPhysical"

    def __init__(self, children=(), columns=()) -> None:
        super().__init__(list(children))
        self.columns = list(columns or [])

    def _run(self, context: ExecContext) -> OutputColumns:
        relations = [child.run(context) for child in self.children]
        non_empty = [relation for relation in relations if relation.num_rows > 0]
        if len(relations) == 1 or not non_empty:
            final = relations[0]
        else:
            final = self.execute(non_empty, context)
        positions = np.arange(final.num_rows, dtype=np.int64)
        context.metrics.output_rows += final.num_rows
        if context.collect_feedback:
            self.record_rows(
                context, sum(relation.num_rows for relation in relations), final.num_rows
            )
        return materialize_output(final.tables, final.indices, positions, self.columns)

    def execute(self, relations: list[TaggedRelation], context: ExecContext) -> TaggedRelation:
        """Run the union: one slice holding each distinct tuple once, in first-seen order."""
        context.metrics.operators_executed += 1
        relations = [relation for relation in relations if relation.num_rows > 0]
        if not relations:
            raise ValueError("union of zero non-empty relations is undefined")
        alias_sets = {frozenset(relation.indices) for relation in relations}
        if len(alias_sets) != 1:
            raise ValueError(f"union inputs cover different alias sets: {alias_sets}")

        context.metrics.union_input_rows += sum(relation.num_rows for relation in relations)

        # The stacked keys are the index rows themselves, so the output's
        # index columns are read straight out of the kept keys.
        stacked = np.concatenate([relation.row_keys() for relation in relations], axis=0)
        _unique, first_positions = np.unique(stacked, axis=0, return_index=True)
        kept = stacked[np.sort(first_positions)]
        aliases = sorted(relations[0].indices)
        tables = {}
        for relation in relations:
            tables.update(relation.tables)

        output = TaggedRelation(
            tables,
            {alias: kept[:, column] for column, alias in enumerate(aliases)},
            (Tag.empty(),),
        )
        context.metrics.union_output_rows += output.num_rows
        context.metrics.tuples_materialized += output.num_rows
        return output
