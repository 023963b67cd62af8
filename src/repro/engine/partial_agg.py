"""Partial aggregation pushdown for sharded execution.

Under scatter–gather execution (:mod:`repro.engine.shard`) each worker
process holds a contiguous block of the partitioning alias's partitions.
When every aggregate in the query is *exactly mergeable*, the coordinator
ships the aggregation down to the shards: each worker folds its merged
partition outputs into per-group partial states, and the coordinator
combines the partial states instead of concatenating full row sets.  The
combine step reuses the same vectorized grouping primitives as serial
aggregation (:mod:`repro.engine.postprocess`), so the final output is
**byte-identical** to aggregating the serially merged rows:

* shard blocks are contiguous in partition order, so concatenating the
  per-shard group lists (each in shard-local first-seen order) preserves the
  global first-seen group order and the first-seen representative rows;
* COUNT / COUNT(col) partials are exact integer counts;
* SUM / AVG partials are pushed only for integer and boolean columns, whose
  per-group sums are exact Python ints in object arrays (addition is
  associative, unlike float rounding);
* MIN / MAX partials carry the per-group extreme *values*; the extreme of
  the per-shard extremes is the global extreme for any ordered type.

Anything not exactly mergeable disables the pushdown for the whole query
(the rows are gathered and aggregated once at the coordinator, as in serial
execution): ``COUNT(DISTINCT …)`` needs the raw value sets, and float
SUM/AVG accumulates in row order with non-associative rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.postprocess import (
    _column_index,
    _factorize,
    _group_codes,
    _group_extreme,
    _group_sums,
)
from repro.engine.result import OutputColumns
from repro.plan.postselect import AggregateFunction, AggregateSpec
from repro.plan.query import Query
from repro.storage.column import ColumnType

#: Column types whose SUM/AVG accumulates exactly (object-dtype Python ints).
_EXACT_SUM_TYPES = (ColumnType.INT, ColumnType.BOOL)


def aggregation_pushdown_supported(query: Query, catalog) -> bool:
    """Whether every aggregate of ``query`` can be partially pre-aggregated.

    ``catalog`` resolves argument columns to their declared types (a
    :class:`~repro.storage.catalog.Catalog` or a pinned snapshot).  The
    decision is all-or-nothing: one unmergeable aggregate keeps the whole
    query on the gather-then-aggregate path.
    """
    if not query.aggregates:
        return False
    for spec in query.aggregates:
        if spec.distinct:
            return False
        if spec.function in (
            AggregateFunction.COUNT,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
        ):
            continue
        # SUM / AVG: exact (hence mergeable) only over integer-like columns.
        if spec.argument is None:
            return False
        table_name = query.tables.get(spec.argument.alias)
        if table_name is None or table_name not in catalog:
            return False
        try:
            column = catalog.get(table_name).column(spec.argument.column)
        except KeyError:
            return False
        if column.ctype not in _EXACT_SUM_TYPES:
            return False
    return True


@dataclass(frozen=True)
class PartialAggregate:
    """Per-group partial aggregate states computed on one shard.

    Attributes:
        num_groups: groups observed by this shard (first-seen order).
        keys: one ``(values, nulls)`` pair per GROUP BY column, holding the
            representative (first-seen) key row of each group.
        states: one state tuple per aggregate spec, aligned with the query's
            aggregate list: ``("count", counts)``, ``("sum", sums,
            non_null_counts)`` or ``("extreme", values, null_mask)``.
    """

    num_groups: int
    keys: list
    states: list


def _shape_groups(output: OutputColumns, query: Query):
    """Group codes + representative rows of ``output`` (serial semantics)."""
    group_names = [column.key() for column in query.group_by]
    positions = [_column_index(output, name) for name in group_names]
    key_codes = [
        _factorize(*output.columns[position])[0] for position in positions
    ]
    codes, representative_rows = _group_codes(key_codes, output.row_count)
    if query.group_by and output.row_count == 0:
        num_groups = 0
        representative_rows = representative_rows[:0]
    else:
        num_groups = int(representative_rows.size)
    return group_names, positions, codes, representative_rows, num_groups


def partial_aggregate(output: OutputColumns, query: Query) -> PartialAggregate:
    """Fold one shard's merged rows into per-group partial states."""
    _names, positions, codes, representative_rows, num_groups = _shape_groups(
        output, query
    )
    keys = []
    for position in positions:
        values, nulls = output.columns[position]
        keys.append((values[representative_rows], nulls[representative_rows]))

    states = []
    for spec in query.aggregates:
        states.append(_partial_state(spec, codes, num_groups, output))
    return PartialAggregate(num_groups=num_groups, keys=keys, states=states)


def _partial_state(
    spec: AggregateSpec, codes: np.ndarray, num_groups: int, output: OutputColumns
):
    if spec.argument is None:
        counts = np.bincount(codes, minlength=num_groups).astype(np.int64)
        return ("count", counts)
    position = _column_index(output, spec.argument.key())
    values, nulls = output.columns[position]
    mask = ~nulls
    non_null = np.bincount(codes[mask], minlength=num_groups).astype(np.int64)
    if spec.function is AggregateFunction.COUNT:
        return ("count", non_null)
    if spec.function in (AggregateFunction.SUM, AggregateFunction.AVG):
        return ("sum", _group_sums(codes, values, mask, num_groups), non_null)
    value_codes, uniques = _factorize(values, nulls)
    extreme_values, null_mask = _group_extreme(
        codes,
        value_codes,
        uniques,
        mask,
        non_null == 0,
        take_max=spec.function is AggregateFunction.MAX,
    )
    return ("extreme", extreme_values, null_mask)


def combine_partial_aggregates(
    partials: list[PartialAggregate], query: Query
) -> OutputColumns:
    """Combine per-shard partial states (in shard order) into the final rows.

    Byte-identical to serially aggregating the partition-order-merged rows:
    groups are re-grouped by their representative keys with the same
    first-seen semantics, counts and exact sums are added, and extremes take
    the extreme of the per-shard extremes.
    """
    group_names = [column.key() for column in query.group_by]
    total = sum(partial.num_groups for partial in partials)
    concatenated_keys = []
    for position in range(len(group_names)):
        values = np.concatenate([partial.keys[position][0] for partial in partials])
        nulls = np.concatenate([partial.keys[position][1] for partial in partials])
        concatenated_keys.append((values, nulls))

    key_codes = [_factorize(values, nulls)[0] for values, nulls in concatenated_keys]
    codes, representative_rows = _group_codes(key_codes, total)
    if query.group_by and total == 0:
        num_groups = 0
        representative_rows = representative_rows[:0]
    else:
        num_groups = int(representative_rows.size)

    out_names = list(group_names) + [spec.label() for spec in query.aggregates]
    columns: list[tuple[np.ndarray, np.ndarray]] = []
    for values, nulls in concatenated_keys:
        columns.append((values[representative_rows], nulls[representative_rows]))

    for index, spec in enumerate(query.aggregates):
        states = [partial.states[index] for partial in partials]
        columns.append(_combine_state(spec, states, codes, num_groups))
    return OutputColumns(names=out_names, columns=columns, row_count=num_groups)


def _combine_state(
    spec: AggregateSpec, states: list, codes: np.ndarray, num_groups: int
):
    kind = states[0][0]
    if kind == "count":
        addends = np.concatenate([state[1] for state in states])
        counts = np.zeros(num_groups, dtype=np.int64)
        np.add.at(counts, codes, addends)
        return counts, np.zeros(num_groups, dtype=np.bool_)
    if kind == "sum":
        sums = np.concatenate([state[1] for state in states])
        non_null = np.concatenate([state[2] for state in states])
        total_non_null = np.zeros(num_groups, dtype=np.int64)
        np.add.at(total_non_null, codes, non_null)
        accumulator = np.zeros(num_groups, dtype=object)
        if sums.size:
            np.add.at(accumulator, codes, sums)
        all_null = total_non_null == 0
        if spec.function is AggregateFunction.SUM:
            return accumulator, all_null
        averages = np.zeros(num_groups, dtype=np.float64)
        safe = ~all_null
        averages[safe] = accumulator[safe].astype(np.float64) / total_non_null[safe]
        return averages, all_null
    values = np.concatenate([state[1] for state in states])
    nulls = np.concatenate([state[2] for state in states])
    value_codes, uniques = _factorize(values, nulls)
    return _group_extreme(
        codes,
        value_codes,
        uniques,
        ~nulls,
        np.bincount(codes[~nulls], minlength=num_groups) == 0,
        take_max=spec.function is AggregateFunction.MAX,
    )
