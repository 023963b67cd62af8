"""The shared expression-evaluation and join-key path.

Three routines every operator needs live here once: building a
:class:`~repro.expr.eval.RowBatch` over the aliases a predicate references,
reading and encoding join-key columns, and orienting a join condition toward
the build input.

Everything here is model-agnostic: functions accept the ``tables`` /
``indices`` mappings of a
:class:`~repro.core.tagged_relation.TaggedRelation` (the one relation type
every execution model exchanges), not the relation itself, so no
execution-model package is imported and no import cycles arise.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.engine.metrics import ExecContext
from repro.expr import three_valued as tv
from repro.expr.ast import BooleanExpr, ColumnRef
from repro.expr.eval import RowBatch
from repro.kernels import dictionary as dict_kernels
from repro.kernels.fused import FusedEvaluator
from repro.plan.query import JoinCondition
from repro.storage.table import Table
from repro.utils.keys import composite_keys


def evaluate_predicate(
    predicate: BooleanExpr,
    tables: Mapping[str, Table],
    indices: Mapping[str, np.ndarray],
    context: ExecContext,
    positions: np.ndarray | None = None,
    description: str = "filter",
) -> np.ndarray:
    """Evaluate ``predicate`` over an index relation; returns a truth array.

    Args:
        predicate: the boolean expression to evaluate.
        tables: alias -> base table of the input relation.
        indices: alias -> row-index array of the input relation.
        context: execution context (cache + I/O accounting).
        positions: optional relation row positions to restrict evaluation to;
            ``None`` evaluates every row.
        description: label used in the error message when the predicate
            references aliases the relation does not have.

    Returns:
        One truth value (:mod:`repro.expr.three_valued`) per evaluated row,
        aligned with ``positions`` (or with the whole relation).
    """
    aliases = predicate.tables()
    missing = aliases - set(indices)
    if missing:
        raise ValueError(
            f"{description} predicate {predicate.key()} references aliases "
            f"{sorted(missing)} not present in the input relation "
            f"(aliases: {sorted(indices)})"
        )
    # A predicate over no column (``1 = 1``) reads nothing, but its batch
    # still needs the relation's row count: size it by any one alias.
    batch_aliases = aliases or frozenset(list(indices)[:1])
    if positions is not None:
        num_rows = int(np.asarray(positions).shape[0])
    elif batch_aliases:
        num_rows = int(np.asarray(indices[next(iter(batch_aliases))]).shape[0])
    else:
        num_rows = 0
    if num_rows == 0:
        # Zero-row early exit: no batch dicts, no RowBatch, no column reads.
        return np.zeros(0, dtype=np.uint8)
    if positions is None:
        batch_indices = {alias: indices[alias] for alias in batch_aliases}
    else:
        batch_indices = {alias: indices[alias][positions] for alias in batch_aliases}
    batch_tables = {alias: tables[alias] for alias in batch_aliases}
    batch = RowBatch(
        batch_tables, batch_indices, cache=context.cache, iostats=context.iostats
    )
    feedback_eligible = (
        context.collect_feedback
        and description == "filter"
        and not (aliases & context.feedback_excluded_aliases)
    )
    truth = FusedEvaluator(
        batch,
        context.clause_selectivities,
        context,
        record_observations=feedback_eligible,
    ).evaluate(predicate)
    if feedback_eligible and truth.size:
        # The observed per-clause pass rate is the raw material of the
        # feedback loop: ratios are partition-invariant (evaluated and
        # matched scale together when a build side re-runs per morsel), so
        # accumulated counts yield the same selectivities at any
        # parallelism / partition setting.  Residual evaluations are
        # excluded — their input is conditioned on the tuples no definite
        # tag assignment covered, which is not a selectivity observation.
        # Clauses touching an access-path-pruned alias are excluded too:
        # their input is conditioned on the scan's candidate set, so the
        # observed ratio is not the predicate's true selectivity.
        context.metrics.record_predicate(
            predicate.key(), int(truth.size), int(tv.is_true(truth).sum())
        )
    return truth


def orient_condition(
    condition: JoinCondition, left_indices: Mapping[str, np.ndarray]
) -> tuple[ColumnRef, ColumnRef]:
    """Return ``(left column, right column)`` for a join's actual inputs.

    Join conditions are stored in query order, which may be flipped relative
    to how the planner arranged the join's inputs; this orients the condition
    so the first column belongs to the left (build) input.
    """
    if condition.left.alias in left_indices:
        return condition.left, condition.right
    if condition.right.alias in left_indices:
        return condition.right, condition.left
    raise ValueError(
        f"join condition {condition} does not reference the left input "
        f"(aliases: {sorted(left_indices)})"
    )


def read_join_keys(
    conditions: list[JoinCondition],
    left_tables: Mapping[str, Table],
    left_indices: Mapping[str, np.ndarray],
    right_tables: Mapping[str, Table],
    right_indices: Mapping[str, np.ndarray],
    context: ExecContext,
    left_positions: np.ndarray | None = None,
    right_positions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Read and encode the join-key columns of both inputs.

    Column reads are accounted against the context's cache and I/O counters;
    the values are folded into composite int64 keys (NULL keys become ``-1``,
    which the join kernel drops — SQL equi-join semantics).

    ``left_positions`` / ``right_positions`` optionally restrict each side to
    a subset of its relation rows (tagged execution joins only the rows named
    by its tag maps).

    When either side is empty no columns are read at all (zero-row early
    exit): both key arrays come back all ``-1``, which the join kernel drops,
    so the join output is the same empty result the reads would have
    produced.  String key columns that both carry dictionaries are joined on
    their integer codes (the probe side remapped into the build side's code
    space) instead of decoded values — same equality structure and NULLs, so
    identical join output, but int factorization instead of object
    factorization.
    """
    if conditions:
        first_left, first_right = orient_condition(conditions[0], left_indices)
        left_count = int(np.asarray(left_indices[first_left.alias]).shape[0])
        if left_positions is not None:
            left_count = int(np.asarray(left_positions).shape[0])
        right_count = int(np.asarray(right_indices[first_right.alias]).shape[0])
        if right_positions is not None:
            right_count = int(np.asarray(right_positions).shape[0])
        if left_count == 0 or right_count == 0:
            return (
                np.full(left_count, -1, dtype=np.int64),
                np.full(right_count, -1, dtype=np.int64),
            )
    left_columns = []
    right_columns = []
    for condition in conditions:
        left_ref, right_ref = orient_condition(condition, left_indices)
        left_rows = left_indices[left_ref.alias]
        if left_positions is not None:
            left_rows = left_rows[left_positions]
        right_rows = right_indices[right_ref.alias]
        if right_positions is not None:
            right_rows = right_rows[right_positions]
        pair = dict_kernels.join_code_columns(
            left_tables[left_ref.alias],
            left_ref.column,
            left_rows,
            right_tables[right_ref.alias],
            right_ref.column,
            right_rows,
            cache=context.cache,
            iostats=context.iostats,
        )
        if pair is not None:
            left_columns.append(pair[0])
            right_columns.append(pair[1])
            continue
        left_columns.append(
            left_tables[left_ref.alias].read_column_at(
                left_ref.column, left_rows, cache=context.cache, iostats=context.iostats
            )
        )
        right_columns.append(
            right_tables[right_ref.alias].read_column_at(
                right_ref.column, right_rows, cache=context.cache, iostats=context.iostats
            )
        )
    return composite_keys(left_columns, right_columns)
