"""Output shaping: aggregation, DISTINCT, ORDER BY and LIMIT.

These steps run on the :class:`~repro.engine.result.OutputColumns` produced
by the projection operator, after the execution model (traditional or
tagged) has done its work.  They are therefore shared by every planner and do
not interact with tag management — but they are part of the timed execution,
just as they would be in a real engine.  Under parallel execution they run
exactly once, on the partition-order-merged output.

All three shaping steps are vectorized with NumPy.  The common primitive is
*factorization* (:func:`_factorize`): each column is mapped to dense integer
codes such that equal values (and all NULLs) get equal codes and code order
matches value order.  Grouping and DISTINCT then reduce to the first row of
each folded integer key (:func:`_first_row_of_key`), and ORDER BY becomes one
``np.lexsort`` over rank-encoded keys — no per-row Python loops anywhere on
the shaping path.

Wherever the data allow, a step is linear in its input: integer keys with a
narrow value span are ranked and grouped through offset tables instead of
sorts, integer sums accumulate in int64 when they cannot overflow, and
ORDER BY + LIMIT k sorts only the rows that can still be among the first k
(:func:`limit_candidates`).  Results are byte-identical either way.
"""

from __future__ import annotations

import numpy as np

from repro.engine.result import OutputColumns
from repro.plan.postselect import AggregateFunction, AggregateSpec, OrderItem
from repro.plan.query import Query
from repro.storage.column import DENSE_SPAN_FACTOR, value_presence
from repro.utils.keys import _MAX_KEY_SPACE


class OutputShapingError(ValueError):
    """Raised when an output-shaping clause cannot be applied to its input:
    an unknown column, a SUM/AVG over non-numeric data, a negative LIMIT."""


def apply_output_shaping(
    output: OutputColumns, query: Query, skip_aggregates: bool = False
) -> OutputColumns:
    """Apply aggregation, DISTINCT, ORDER BY and LIMIT to ``output``.

    ``skip_aggregates`` is set by the session when sharded execution already
    pushed the aggregation down and combined the partial states
    (:mod:`repro.engine.partial_agg`): ``output`` then *is* the aggregated
    row set and only the later shaping steps still apply.
    """
    if query.aggregates and not skip_aggregates:
        output = aggregate(output, query.group_by, query.aggregates)
    if query.distinct:
        output = distinct(output)
    if query.order_by:
        if query.limit is not None:
            output = limit_candidates(output, query)
        output = order_by(output, query.order_by)
    if query.limit is not None:
        output = limit(output, query.limit)
    return output


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _column_index(output: OutputColumns, name: str) -> int:
    try:
        return output.names.index(name)
    except ValueError:
        raise OutputShapingError(
            f"output column {name!r} not found; available: {', '.join(output.names)}"
        ) from None


def _take(output: OutputColumns, positions: np.ndarray) -> OutputColumns:
    """A new OutputColumns holding only the rows at ``positions``."""
    columns = [(values[positions], nulls[positions]) for values, nulls in output.columns]
    return OutputColumns(names=list(output.names), columns=columns, row_count=int(positions.size))


def _factorize(values: np.ndarray, nulls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense integer codes for a column: equal values get equal codes.

    Returns ``(codes, uniques)``.  Non-NULL rows get codes ``0 .. U-1`` in
    ascending value order; every NULL row gets code ``-1``, so NULLs compare
    equal to each other and unequal to every value — the semantics GROUP BY,
    DISTINCT and ORDER BY all share.
    """
    codes = np.full(values.shape[0], -1, dtype=np.int64)
    mask = ~nulls
    valid = values[mask]
    presence = value_presence(valid)
    if presence is not None:
        # Narrow integer span: rank through a flag table, no sort.
        offsets, present, low = presence
        codes[mask] = (np.cumsum(present) - 1)[offsets]
        uniques = (np.flatnonzero(present) + low).astype(valid.dtype, copy=False)
    elif valid.size:
        uniques, inverse = np.unique(valid, return_inverse=True)
        codes[mask] = inverse.astype(np.int64, copy=False)
    else:
        uniques = values[:0]
    return codes, uniques


def _fold_codes(code_columns: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """One int64 key per row: equal code tuples get equal keys.

    Returns ``(key, key_space)`` with every key in ``[0, key_space)``.  Mixed
    radix over each column's ``max code + 2`` (codes are >= -1).  The
    running key is re-compressed to dense ranks before a fold could leave
    :data:`~repro.utils.keys._MAX_KEY_SPACE` (int64 would wrap silently).
    """
    key, key_space = np.zeros(code_columns[0].shape[0], dtype=np.int64), 1
    for codes in code_columns:
        radix = int(codes.max()) + 2 if codes.size else 1
        if key_space * radix > _MAX_KEY_SPACE:
            uniques, key = np.unique(key, return_inverse=True)
            key_space = int(uniques.size)
        key = key * radix + (codes + 1)
        key_space *= radix
    return key, key_space


def _first_row_of_key(key: np.ndarray, key_space: int) -> tuple[np.ndarray, np.ndarray]:
    """First occurrences of folded keys: ``(first_row, is_first)`` per row.

    ``first_row`` is the position of the first row holding the same key and
    ``is_first`` flags the rows that are their own first — the one definition
    GROUP BY, DISTINCT and COUNT(DISTINCT) share.  A key space of at most
    :data:`~repro.storage.column.DENSE_SPAN_FACTOR` x rows is a
    direct-address table filled by ``np.minimum.at``; a wider one sorts.
    """
    positions = np.arange(key.size, dtype=np.int64)
    if key_space <= DENSE_SPAN_FACTOR * key.size:
        table = np.full(key_space, key.size, dtype=np.int64)
        np.minimum.at(table, key, positions)
        first_row = table[key]
    else:
        _uniques, first_rows, inverse = np.unique(key, return_index=True, return_inverse=True)
        first_row = first_rows[inverse.reshape(-1)]
    return first_row, first_row == positions


def _group_codes(
    code_columns: list[np.ndarray], num_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group ids (first-seen order) from per-column factorized codes.

    Returns ``(group_of_row, representative_row)``: one dense group id per
    input row, groups numbered in order of first appearance — matching the
    SQL-typical (and previously per-row Python) first-seen output order —
    plus the first input row of each group.
    """
    if not code_columns:
        # No GROUP BY: the whole input is one group (even when empty).
        return np.zeros(num_rows, dtype=np.int64), np.zeros(1, dtype=np.int64)
    first_row, is_first = _first_row_of_key(*_fold_codes(code_columns))
    representative_rows = np.flatnonzero(is_first)
    # Number the groups at their first rows, then read the ids back per row.
    group_at = np.empty(num_rows, dtype=np.int64)
    group_at[representative_rows] = np.arange(representative_rows.size, dtype=np.int64)
    return group_at[first_row], representative_rows


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def _group_sums(
    codes: np.ndarray, values: np.ndarray, mask: np.ndarray, num_groups: int
) -> np.ndarray:
    """Per-group sums over the non-NULL rows (``mask``) of numeric ``values``.

    ``np.add.at`` accumulates in row order, so float results are bit-identical
    to a left-to-right Python ``sum``.  Integer (and bool) sums are exact
    Python ints in an object array: accumulated in int64 when
    ``max|v| x rows`` cannot reach 2**63, in arbitrary precision otherwise
    (a fixed-width accumulator would silently wrap).
    """
    addends = values[mask]
    if values.dtype.kind == "f":
        accumulator = np.zeros(num_groups, dtype=np.float64)
        np.add.at(accumulator, codes[mask], addends)
        return accumulator
    bound = max(int(addends.max()), -int(addends.min())) if addends.size else 0
    if bound * addends.size < 2**63:
        accumulator = np.zeros(num_groups, dtype=np.int64)
        np.add.at(accumulator, codes[mask], addends)
        return np.array(accumulator.tolist(), dtype=object)
    accumulator = np.zeros(num_groups, dtype=object)
    # tolist() yields Python ints/bools, keeping the sum exact.
    np.add.at(accumulator, codes[mask], np.array(addends.tolist(), dtype=object))
    return accumulator


def _group_extreme(
    codes: np.ndarray,
    value_codes: np.ndarray,
    uniques: np.ndarray,
    mask: np.ndarray,
    empty: np.ndarray,
    take_max: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group MIN/MAX via factorized ranks (works for every value type).

    ``empty`` flags the groups with no non-NULL input (their non-NULL count
    is 0).  Returns ``(values, null_mask)``; empty groups are NULL.  The
    values always have the argument column's dtype (``uniques`` carries it
    even when empty), so per-shard partial extremes concatenate unchanged.
    """
    num_groups = empty.size
    if not mask.any() or uniques.size == 0:
        return np.zeros(num_groups, dtype=uniques.dtype), np.ones(num_groups, np.bool_)
    extreme = np.full(num_groups, -1 if take_max else np.iinfo(np.int64).max, dtype=np.int64)
    operation = np.maximum if take_max else np.minimum
    operation.at(extreme, codes[mask], value_codes[mask])
    extreme[empty] = 0  # placeholder rank; masked as NULL below
    return uniques[extreme], empty


def _count_distinct(
    codes: np.ndarray, value_codes: np.ndarray, mask: np.ndarray, num_groups: int
) -> np.ndarray:
    """Per-group COUNT(DISTINCT column) over non-NULL rows."""
    if not mask.any():
        return np.zeros(num_groups, dtype=np.int64)
    groups = codes[mask]
    _first_row, is_first = _first_row_of_key(*_fold_codes([groups, value_codes[mask]]))
    return np.bincount(groups[is_first], minlength=num_groups).astype(np.int64)


def _evaluate_aggregate(
    spec: AggregateSpec,
    codes: np.ndarray,
    num_groups: int,
    output: OutputColumns,
) -> tuple[np.ndarray, np.ndarray]:
    """One aggregate column: ``(values, null_mask)`` with one row per group."""
    if spec.argument is None:
        counts = np.bincount(codes, minlength=num_groups).astype(np.int64)
        return counts, np.zeros(num_groups, dtype=np.bool_)

    position = _column_index(output, spec.argument.key())
    values, nulls = output.columns[position]
    mask = ~nulls
    never_null = np.zeros(num_groups, dtype=np.bool_)

    if spec.function is AggregateFunction.COUNT:
        if spec.distinct:
            value_codes, _uniques = _factorize(values, nulls)
            return _count_distinct(codes, value_codes, mask, num_groups), never_null
        counts = np.bincount(codes[mask], minlength=num_groups).astype(np.int64)
        return counts, never_null

    non_null_counts = np.bincount(codes[mask], minlength=num_groups).astype(np.int64)
    all_null = non_null_counts == 0

    if spec.function in (AggregateFunction.SUM, AggregateFunction.AVG):
        if values.dtype.kind not in "iubf":
            raise OutputShapingError(
                f"{spec.label()} needs a numeric column; "
                f"{spec.argument.key()} holds {values.dtype} values"
            )
        sums = _group_sums(codes, values, mask, num_groups)
        if spec.function is AggregateFunction.SUM:
            return sums, all_null
        averages = np.zeros(num_groups, dtype=np.float64)
        safe = ~all_null
        averages[safe] = sums[safe].astype(np.float64) / non_null_counts[safe]
        return averages, all_null

    if spec.function in (AggregateFunction.MIN, AggregateFunction.MAX):
        value_codes, uniques = _factorize(values, nulls)
        return _group_extreme(
            codes,
            value_codes,
            uniques,
            mask,
            all_null,
            take_max=spec.function is AggregateFunction.MAX,
        )

    raise OutputShapingError(f"unsupported aggregate function {spec.function!r}")


def aggregate(
    output: OutputColumns,
    group_by: list,
    aggregates: list[AggregateSpec],
) -> OutputColumns:
    """GROUP BY + aggregate evaluation, fully vectorized.

    With an empty ``group_by`` the whole input forms a single group; in that
    case SQL still produces one output row even for an empty input.  Groups
    appear in first-seen input order, as before the vectorization.
    """
    group_names = [column.key() for column in group_by]
    group_positions = [_column_index(output, name) for name in group_names]
    key_codes = [
        _factorize(*output.columns[position])[0] for position in group_positions
    ]

    codes, representative_rows = _group_codes(key_codes, output.row_count)
    if group_by and output.row_count == 0:
        num_groups = 0
        representative_rows = representative_rows[:0]
    else:
        num_groups = int(representative_rows.size)

    out_names = list(group_names) + [spec.label() for spec in aggregates]
    columns: list[tuple[np.ndarray, np.ndarray]] = []
    for position in group_positions:
        values, nulls = output.columns[position]
        columns.append((values[representative_rows], nulls[representative_rows]))
    for spec in aggregates:
        columns.append(_evaluate_aggregate(spec, codes, num_groups, output))
    return OutputColumns(names=out_names, columns=columns, row_count=num_groups)


# --------------------------------------------------------------------------- #
# DISTINCT / ORDER BY / LIMIT
# --------------------------------------------------------------------------- #
def distinct(output: OutputColumns) -> OutputColumns:
    """Remove duplicate rows, keeping the first occurrence of each.

    Every column is factorized to integer codes and a row is kept when it is
    the first holding its folded key (:func:`_first_row_of_key`).
    """
    if output.row_count == 0 or not output.columns:
        return output
    _first_row, is_first = _first_row_of_key(
        *_fold_codes([_factorize(values, nulls)[0] for values, nulls in output.columns])
    )
    return _take(output, np.flatnonzero(is_first))


def limit_candidates(output: OutputColumns, query: Query) -> OutputColumns:
    """The rows of ``output`` that can still be among its first ``LIMIT`` rows.

    Shaping the result (ORDER BY, then LIMIT) gives exactly what shaping
    ``output`` gives, and so does shaping the concatenation of the candidates
    of ``output``'s contiguous blocks — which is what shard workers return.

    A bare LIMIT keeps the first ``count`` rows.  With ORDER BY, a row whose
    *primary* key is beyond the ``count``-th smallest (largest for DESC)
    non-NULL key has at least ``count`` rows ahead of it, so only the rows up
    to that value — boundary ties included, in input order — stay; the sort
    that follows settles NULLS LAST, secondary keys and tie order on them.
    Whatever this cannot decide exactly (a non-numeric key, non-NULL NaNs,
    fewer than ``count`` non-NULL keys) keeps every row, and so does a key
    that is not an output column — :func:`order_by` names that error.
    """
    count = query.limit
    if not query.order_by:
        return limit(output, count)
    item = query.order_by[0]
    if not 0 < count < output.row_count or item.key not in output.names:
        return output
    values, nulls = output.columns[output.names.index(item.key)]
    valid = values[~nulls]
    if (
        values.dtype.kind not in "iuf"
        or valid.size < count
        or (values.dtype.kind == "f" and np.isnan(valid).any())
    ):
        return output
    if item.descending:
        keep = values >= np.partition(valid, valid.size - count)[valid.size - count]
    else:
        keep = values <= np.partition(valid, count - 1)[count - 1]
    return _take(output, np.flatnonzero(keep & ~nulls))


def order_by(output: OutputColumns, items: list[OrderItem]) -> OutputColumns:
    """Sort the output rows; NULLs sort last for every direction.

    Each key column is rank-encoded (ascending value order, NULLs mapped
    past the largest rank so they always sort last, descending keys
    rank-reversed) and a single stable ``np.lexsort`` orders the rows —
    ties keep their input order, exactly like the repeated stable sorts
    this replaces.
    """
    if output.row_count == 0 or not items:
        return output
    keys = []
    for item in items:
        values, nulls = output.columns[_column_index(output, item.key)]
        codes, uniques = _factorize(values, nulls)
        ranks = codes.copy()
        if item.descending:
            ranks[codes >= 0] = (uniques.size - 1) - codes[codes >= 0]
        ranks[codes < 0] = uniques.size  # NULLS LAST in either direction
        keys.append(ranks)
    # lexsort sorts by the *last* key first; our first item is primary.
    positions = np.lexsort(tuple(reversed(keys)))
    return _take(output, positions.astype(np.int64, copy=False))


def limit(output: OutputColumns, count: int) -> OutputColumns:
    """Keep only the first ``count`` rows."""
    if count < 0:
        raise OutputShapingError("LIMIT must be non-negative")
    if output.row_count <= count:
        return output
    return _take(output, np.arange(count, dtype=np.int64))
