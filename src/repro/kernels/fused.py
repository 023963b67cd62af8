"""Fused selection-vector kernels for predicate evaluation.

``BooleanExpr.evaluate`` computes a full-width three-valued truth array for
*every* clause of a predicate tree and combines them afterwards
(``tv.and_all`` / ``tv.or_all``).  For a conjunction of k clauses over n
rows that is Θ(n·k) clause work regardless of selectivity.

:class:`FusedEvaluator` evaluates the same tree over *selection vectors*:
an AND chain keeps an array of still-alive candidate positions and each
successive conjunct only evaluates those, so a selective first clause
short-circuits the rest of the chain; an OR tree dually retires rows as soon
as one disjunct accepts them.  Clause order comes from optimizer selectivity
estimates (ascending for AND — most selective first; descending for OR —
most accepting first), refined across executions by observed feedback pass
rates.  Three-valued NULL semantics are preserved exactly:

* AND: an UNKNOWN row *stays alive* (a later FALSE must still dominate it);
  rows alive at the end are TRUE unless flagged UNKNOWN along the way.
* OR: a TRUE verdict is final; rows never accepted are FALSE unless flagged
  UNKNOWN by some disjunct.

Leaves evaluate through :class:`~repro.kernels.dictionary.LeafEvaluator`,
the leaf routine the planner also measures base-predicate selectivities
with: over dictionary codes when the column carries a dictionary, otherwise
through the unmodified AST evaluator over a restricted batch view — so every
leaf is byte-identical to ``BooleanExpr.evaluate``, only evaluated on fewer
rows.
"""

from __future__ import annotations

import numpy as np

from repro.expr import three_valued as tv
from repro.expr.ast import AndExpr, BooleanExpr, NotExpr, OrExpr
from repro.expr.eval import RowBatch
from repro.kernels.dictionary import LeafEvaluator

#: Selectivity assumed for clauses the optimizer has no estimate for.
DEFAULT_SELECTIVITY = 0.5


def ordered_children(
    expr: BooleanExpr, selectivities
) -> tuple[BooleanExpr, ...]:
    """Evaluation order of an AND/OR node's children.

    Conjuncts run most-selective first (ascending estimated selectivity) so
    the alive set shrinks as fast as possible; disjuncts run most-accepting
    first (descending) for the dual reason.  Ties break on the child's
    canonical key so the order — which ``--explain-analyze`` reports — is
    deterministic across runs and planner regroupings.
    """
    children = expr.children()
    if isinstance(expr, AndExpr):
        return tuple(
            sorted(
                children,
                key=lambda c: (selectivities.get(c.key(), DEFAULT_SELECTIVITY), c.key()),
            )
        )
    if isinstance(expr, OrExpr):
        return tuple(
            sorted(
                children,
                key=lambda c: (-selectivities.get(c.key(), DEFAULT_SELECTIVITY), c.key()),
            )
        )
    return children


class FusedEvaluator:
    """One predicate evaluation over one row batch.

    Args:
        batch: the full-selection :class:`RowBatch` the predicate runs over.
        clause_selectivities: estimated selectivity per AND/OR child
            expression key, computed at prepare time from the
            :class:`~repro.optimizer.estimates.EstimateProvider` (and
            therefore refined by feedback overrides on re-plans).  Conjuncts
            run ascending / disjuncts descending by these values; unknown
            keys default to :data:`DEFAULT_SELECTIVITY`.
        context: execution context; ``context.metrics.clause_rows_evaluated``
            accumulates the actual per-leaf row counts (the bench counter).
        record_observations: when True (the caller has already applied the
            feedback gating that guards the root observation), the first
            conjunct/disjunct of a root AND/OR — which runs unconditioned,
            over the full selection — also records its pass rate, feeding the
            clause-ordering refinement loop.
    """

    def __init__(
        self,
        batch: RowBatch,
        clause_selectivities,
        context,
        record_observations: bool = False,
    ) -> None:
        self.batch = batch
        self.clause_selectivities = clause_selectivities
        self.context = context
        self.record_observations = record_observations
        self.leaves = LeafEvaluator(batch)

    def evaluate(self, predicate: BooleanExpr) -> np.ndarray:
        """Full-width three-valued truth array, equal to ``predicate.evaluate``."""
        rows = np.arange(self.batch.num_rows, dtype=np.int64)
        return self._evaluate(predicate, rows, record=self.record_observations)

    # ------------------------------------------------------------------ #
    # Tree recursion
    # ------------------------------------------------------------------ #
    def _evaluate(
        self, expr: BooleanExpr, rows: np.ndarray, record: bool = False
    ) -> np.ndarray:
        if rows.size == 0:
            return np.zeros(0, dtype=np.uint8)
        if isinstance(expr, AndExpr):
            return self._evaluate_and(expr, rows, record)
        if isinstance(expr, OrExpr):
            return self._evaluate_or(expr, rows, record)
        if isinstance(expr, NotExpr):
            return tv.logical_not(self._evaluate(expr.child, rows))
        return self._evaluate_leaf(expr, rows)

    def _evaluate_and(self, expr: BooleanExpr, rows: np.ndarray, record: bool) -> np.ndarray:
        n = rows.size
        result = np.full(n, int(tv.FALSE), dtype=np.uint8)
        alive = np.arange(n, dtype=np.int64)
        unknown = np.zeros(n, dtype=np.bool_)
        for position, child in enumerate(
            ordered_children(expr, self.clause_selectivities)
        ):
            if alive.size == 0:
                break
            truth = self._evaluate(child, rows[alive])
            if record and position == 0:
                self._record_child(child, truth)
            unknown[alive[tv.is_unknown(truth)]] = True
            # UNKNOWN rows stay alive: a later FALSE still dominates them.
            alive = alive[~tv.is_false(truth)]
        result[alive] = int(tv.TRUE)
        flagged = alive[unknown[alive]]
        result[flagged] = int(tv.UNKNOWN)
        return result

    def _evaluate_or(self, expr: BooleanExpr, rows: np.ndarray, record: bool) -> np.ndarray:
        n = rows.size
        result = np.full(n, int(tv.FALSE), dtype=np.uint8)
        alive = np.arange(n, dtype=np.int64)
        unknown = np.zeros(n, dtype=np.bool_)
        for position, child in enumerate(
            ordered_children(expr, self.clause_selectivities)
        ):
            if alive.size == 0:
                break
            truth = self._evaluate(child, rows[alive])
            if record and position == 0:
                self._record_child(child, truth)
            accepted = tv.is_true(truth)
            result[alive[accepted]] = int(tv.TRUE)
            unknown[alive[tv.is_unknown(truth)]] = True
            # A TRUE verdict is final; everything else stays alive.
            alive = alive[~accepted]
        flagged = alive[unknown[alive]]
        result[flagged] = int(tv.UNKNOWN)
        return result

    # ------------------------------------------------------------------ #
    # Leaves
    # ------------------------------------------------------------------ #
    def _evaluate_leaf(self, expr: BooleanExpr, rows: np.ndarray) -> np.ndarray:
        self.context.metrics.clause_rows_evaluated += int(rows.size)
        return self.leaves.truth(expr, rows)


    # ------------------------------------------------------------------ #
    # Feedback
    # ------------------------------------------------------------------ #
    def _record_child(self, child: BooleanExpr, truth: np.ndarray) -> None:
        if truth.size == 0:
            return
        self.context.metrics.record_predicate(
            child.key(), int(truth.size), int(tv.is_true(truth).sum())
        )
