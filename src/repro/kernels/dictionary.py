"""Dictionary-aware predicate and join-key evaluation.

Low-cardinality string columns — venue names, field tags, genre labels — are
exactly where predicate evaluation over decoded Python strings hurts most.
The access layer already knows how to dictionary-encode a column
(:class:`repro.access.dictionary.DictionaryEncoding`); this module puts those
codes on the expression hot path:

* **Predicates**: equality / IN / LIKE / ordered comparisons against string
  literals evaluate the operation once per *distinct* value (a lookup table
  over the sorted dictionary) and then gather per row over int32 codes —
  rows never materialize decoded strings.  Because the same elementwise
  operation runs on every distinct value, the result is byte-identical to
  the per-row ``BooleanExpr.evaluate``, including the miss case: a constant
  absent from the dictionary simply matches no code (no ``KeyError``).
  :class:`LeafEvaluator` is the one leaf routine built on this: execution's
  fused kernels and the planner's sampled selectivities both call it.
* **Join keys**: when both sides of an equi-join condition are
  dictionary-encoded string columns, :func:`join_code_columns` substitutes
  int code arrays for the decoded strings before key factorization, with the
  probe side remapped into the build side's code space (values absent from
  the build dictionary get codes beyond it — they can never match, which is
  the correct no-match outcome).

I/O accounting: reading codes instead of values touches the same simulated
pages (the dictionary is a per-column sidecar, not a narrower projection),
so code reads are accounted exactly like a value read of the same positions
via :meth:`repro.storage.column.Column.account_read` — the win is the
avoided string decode and per-row regex/compare work, not avoided pages.
"""

from __future__ import annotations

import numpy as np

from repro.access.dictionary import NULL_CODE, DictionaryEncoding, table_dictionary
from repro.expr.ast import ColumnRef, Comparison, InPredicate, LikePredicate, Literal, _compare
from repro.expr.eval import RowBatch
from repro.storage.table import Table


def leaf_operand(expr) -> ColumnRef | None:
    """The single column a dictionary-eligible base predicate reads.

    Returns ``None`` for shapes the dictionary path does not cover (the
    caller falls back to the generic evaluator): column-vs-column
    comparisons, non-string literals, BETWEEN, IS NULL, …
    """
    if isinstance(expr, Comparison):
        if (
            isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, Literal)
            and isinstance(expr.right.value, str)
        ):
            return expr.left
        return None
    if isinstance(expr, InPredicate):
        if isinstance(expr.operand, ColumnRef) and all(
            isinstance(value, str) for value in expr.values
        ):
            return expr.operand
        return None
    if isinstance(expr, LikePredicate):
        if isinstance(expr.operand, ColumnRef):
            return expr.operand
        return None
    return None


def leaf_code_table(expr, encoding: DictionaryEncoding) -> np.ndarray | None:
    """Boolean match table over dictionary codes for a base predicate.

    Entry ``c`` answers "does distinct value ``c`` satisfy the predicate?".
    The predicate's own elementwise operation runs over the (sorted) distinct
    values, so semantics are exactly those of the row-at-a-time evaluator.
    """
    values = encoding.values
    if isinstance(expr, Comparison):
        return np.asarray(_compare(expr.op, values, expr.right.value), dtype=np.bool_)
    if isinstance(expr, InPredicate):
        return expr.matches(values)
    if isinstance(expr, LikePredicate):
        regex = expr.regex
        return np.fromiter(
            (bool(regex.search(str(value))) for value in values),
            dtype=np.bool_,
            count=len(values),
        )
    return None


def gather_truth(code_table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Three-valued truth from a per-code match table and per-row codes.

    NULL rows (``NULL_CODE``) become UNKNOWN; every other row gathers its
    code's entry.  Implemented as one fancy-indexing pass: the table is
    extended with a trailing slot that code ``-1`` naturally indexes.
    """
    from repro.expr import three_valued as tv

    extended = np.append(code_table, False)
    mask = extended[codes]
    return tv.from_bool_array(mask, codes == NULL_CODE)


class LeafEvaluator:
    """Base predicates over one row batch, by codes where the column has a dictionary.

    The one leaf routine of planning and execution: the fused kernels
    (:class:`repro.kernels.fused.FusedEvaluator`) evaluate a predicate tree's
    leaves through it, and the estimate provider
    (:class:`repro.optimizer.estimates.EstimateProvider`) measures base
    predicates on its table sample through it.

    Each ``(alias, column)``'s codes are read once, at the batch's full
    selection, and accounted to the batch's page cache and I/O counters (a
    batch without counters, like a planning sample's, is not accounted).
    Each leaf's per-code match table is built once.
    """

    def __init__(self, batch: RowBatch) -> None:
        self.batch = batch
        # (alias, column) -> (encoding, full-selection codes) or None.
        self._codes_cache: dict = {}
        # leaf key -> per-code boolean match table.
        self._code_tables: dict = {}

    def truth(self, expr, rows: np.ndarray) -> np.ndarray:
        """Three-valued truth of base predicate ``expr`` over ``rows``.

        ``rows`` are ascending positions into the batch.  Byte-identical to
        ``expr.evaluate(batch.restricted(rows))``, which is what runs when
        the column has no dictionary or the shape is not covered.  When
        ``rows`` is the batch's whole selection (then it is the identity),
        the leaf evaluates against the batch itself and reads no second copy
        of its columns.
        """
        truth = self._by_codes(expr, rows)
        if truth is not None:
            return truth
        if rows.size == self.batch.num_rows:
            return expr.evaluate(self.batch)
        return expr.evaluate(self.batch.restricted(rows))

    def _by_codes(self, expr, rows: np.ndarray) -> np.ndarray | None:
        operand = leaf_operand(expr)
        if operand is None:
            return None
        entry = self._codes(operand.alias, operand.column)
        if entry is None:
            return None
        encoding, codes = entry
        leaf_key = expr.key()
        code_table = self._code_tables.get(leaf_key)
        if code_table is None:
            code_table = leaf_code_table(expr, encoding)
            if code_table is None:
                return None
            self._code_tables[leaf_key] = code_table
        return gather_truth(code_table, codes if rows.size == codes.size else codes[rows])

    def _codes(self, alias: str, column: str):
        """Full-selection codes for a column, read (and accounted) once."""
        key = (alias, column)
        if key in self._codes_cache:
            return self._codes_cache[key]
        entry = None
        table = self.batch.table(alias)
        if table is not None:
            encoding = table_dictionary(table, column)
            if encoding is not None:
                positions = self.batch.indices_for(alias)
                table.column(column).account_read(
                    positions, cache=self.batch.cache, iostats=self.batch.iostats
                )
                entry = (encoding, encoding.codes[positions])
        self._codes_cache[key] = entry
        return entry


def join_code_columns(
    left_table: Table,
    left_column: str,
    left_rows: np.ndarray,
    right_table: Table,
    right_column: str,
    right_rows: np.ndarray,
    cache=None,
    iostats=None,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None:
    """Code-valued ``(values, nulls)`` pairs for one join condition.

    Returns ``None`` when either side has no dictionary (caller reads the
    decoded values as before).  Row order, NULL handling and the equality
    structure of the keys are preserved exactly, so the join output is
    byte-identical to the string path.
    """
    left_encoding = table_dictionary(left_table, left_column)
    if left_encoding is None:
        return None
    right_encoding = table_dictionary(right_table, right_column)
    if right_encoding is None:
        return None

    left_table.column(left_column).account_read(left_rows, cache=cache, iostats=iostats)
    right_table.column(right_column).account_read(right_rows, cache=cache, iostats=iostats)

    left_codes = left_encoding.codes[left_rows].astype(np.int64)
    right_codes = right_encoding.codes[right_rows].astype(np.int64)
    if left_encoding is not right_encoding:
        right_codes = _remap_codes(right_codes, right_encoding, left_encoding)
    return (
        (left_codes, left_codes == NULL_CODE),
        (right_codes, right_codes == NULL_CODE),
    )


def _remap_codes(
    codes: np.ndarray, source: DictionaryEncoding, target: DictionaryEncoding
) -> np.ndarray:
    """Translate codes of ``source`` into ``target``'s code space.

    Source values present in the target dictionary get the target's code;
    absent values get distinct codes *beyond* the target's range, so they
    factorize as non-matching keys instead of colliding.  NULL codes stay
    NULL codes.
    """
    if target.num_values:
        positions = np.searchsorted(target.values, source.values)
        positions = np.minimum(positions, target.num_values - 1)
        found = target.values[positions] == source.values
    else:
        positions = np.zeros(source.num_values, dtype=np.int64)
        found = np.zeros(source.num_values, dtype=np.bool_)
    overflow = target.num_values + np.arange(source.num_values, dtype=np.int64)
    translation = np.where(found, positions, overflow)
    out = np.full(codes.shape, NULL_CODE, dtype=np.int64)
    valid = codes != NULL_CODE
    out[valid] = translation[codes[valid]]
    return out
