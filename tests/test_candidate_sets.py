"""Candidate sets as sorted row positions agree with dense row masks.

An access-path candidate set is a sorted, unique ``int64`` position array
composed without ever being as long as the table (zone-map evidence stays a
page mask).  The reference below is the dense composer it replaced: one
boolean per row for every piece of evidence, AND/OR/NOT over whole-table
masks, the delete mask folded in last.  Under Hypothesis, over random
predicate trees of index-answerable and zone-only base predicates (with
``!=`` / ``IS NOT NULL`` complements, and with and without deletes), the
manager's candidate set must list exactly the reference mask's rows; and the
scan's row-range slice and the morsel driver's skip decision must match
their mask versions for any ``(start, stop)`` range.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, Column, ColumnType, Table
from repro.access.manager import AccessPathManager, base_predicate_column
from repro.access.zonemap import build_zone_map
from repro.engine.metrics import ExecContext
from repro.expr import three_valued as tv
from repro.expr.ast import AndExpr, Comparison, NotExpr, OrExpr
from repro.expr.builders import and_, between, col, in_, is_null, like, lit, not_, or_
from repro.expr.eval import RowBatch
from repro.physical.operators import ScanPhysical, candidates_in_range
from repro.storage.table import TablePartition

NAN = float("nan")
#: Indexed columns (every base predicate on them is answered by the index).
INDEXED = {"k": "bitmap", "x": "sorted"}
X_DOMAIN = [-2.0, -1.5, 0.0, 0.5, 1.0, 2.0, 3.25, 4.0]
W_DOMAIN = [0.0, 0.25, 0.5, 0.75, 1.0]
C_DOMAIN = ["a1", "a2", "b1", "b2"]
K_VALUES = st.integers(-1, 6)
X_VALUES = st.sampled_from(X_DOMAIN)
Z_VALUES = st.integers(-2, 40)
W_VALUES = st.sampled_from(W_DOMAIN)
OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def tables(draw) -> Table:
    """``t``: two indexed columns, three clustered zone-only ones, optional deletes.

    Hypothesis picks the shape (rows, page size, delete density); the cells
    come from a drawn seed, so every example has NULLs, NaNs and values
    spread over several pages instead of shrinking toward all-NULL columns.
    """
    n = draw(st.integers(0, 120))
    page_size = draw(st.sampled_from([1, 3, 8, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def holes(values, *fills) -> list:
        cells = values.tolist()
        for fill in fills:
            for position in np.flatnonzero(rng.random(n) < 0.08):
                cells[position] = fill
        return cells

    def column(name, values, ctype):
        return Column(name, values, ctype=ctype, page_size=page_size)

    # k and x are scattered; z, w and c are sorted, so their zone maps prune.
    strings = np.sort(rng.choice(C_DOMAIN, n)).astype(object)
    columns = [
        column("k", holes(rng.integers(-1, 7, n), None), ColumnType.INT),
        column("x", holes(rng.choice(X_DOMAIN, n), None, NAN), ColumnType.FLOAT),
        column("z", holes(np.sort(rng.integers(-2, 41, n)), None), ColumnType.INT),
        column("w", holes(np.sort(rng.choice(W_DOMAIN, n)), None, NAN), ColumnType.FLOAT),
        column("c", holes(strings, None), ColumnType.STRING),
    ]
    density = draw(st.sampled_from([None, 0.05, 0.4]))
    deletes = None if density is None else rng.random(n) < density
    return Table("t", columns, delete_mask=deletes)


def comparisons(column: str, values) -> st.SearchStrategy:
    ref = col("t", column)
    return st.builds(
        lambda op, value, flipped: (
            Comparison(lit(value), op, ref) if flipped else Comparison(ref, op, lit(value))
        ),
        st.sampled_from(OPS),
        values,
        st.booleans(),
    )


def base_predicates(column: str, values) -> st.SearchStrategy:
    ref = col("t", column)
    return st.one_of(
        comparisons(column, values),
        st.lists(values, min_size=1, max_size=3).map(lambda chosen: in_(ref, chosen)),
        st.tuples(values, values).map(lambda bounds: between(ref, *bounds)),
        st.booleans().map(lambda negated: is_null(ref, negated=negated)),
    )


BASE = st.one_of(
    base_predicates("k", K_VALUES),
    base_predicates("x", X_VALUES),
    base_predicates("z", Z_VALUES),
    base_predicates("w", W_VALUES),
    st.sampled_from(["a%", "b1", "%1", "a2%"]).map(lambda p: like(col("t", "c"), p)),
    st.sampled_from(["a1", "b2", "zz"]).map(lambda v: col("t", "c").eq(v)),
)


@st.composite
def predicates(draw, depth: int = 3):
    """An AND / OR / NOT tree over :data:`BASE`, at most ``depth`` levels deep."""
    shape = draw(st.sampled_from(("and", "or", "not", "base"))) if depth else "base"
    if shape == "base":
        return draw(BASE)
    if shape == "not":
        return not_(draw(predicates(depth - 1)))
    parts = [draw(predicates(depth - 1)) for _ in range(draw(st.integers(2, 3)))]
    return (and_ if shape == "and" else or_)(*parts)


def reference_mask(predicate, table: Table) -> np.ndarray | None:
    """The dense composer: whole-table row masks under AND / OR / NOT."""
    if isinstance(predicate, NotExpr):
        return None
    if isinstance(predicate, AndExpr):
        combined = None
        for child in predicate.children():
            mask = reference_mask(child, table)
            if mask is not None:
                combined = mask if combined is None else combined & mask
        return combined
    if isinstance(predicate, OrExpr):
        combined = None
        for child in predicate.children():
            mask = reference_mask(child, table)
            if mask is None:
                return None
            combined = mask if combined is None else combined | mask
        return combined
    column = base_predicate_column(predicate)
    if column in INDEXED:  # an index answers exactly: the TRUE rows
        truth = predicate.evaluate(RowBatch.for_base_table("t", table))
        return tv.is_true(truth)
    pages = build_zone_map(table.column(column)).page_mask(predicate)
    if pages is None:
        return None
    return np.repeat(pages, table.page_size)[: table.num_rows]


def reference_candidates(predicate, table: Table) -> np.ndarray | None:
    mask = reference_mask(predicate, table)
    if table.has_deletes():
        live = ~table.delete_mask
        mask = live if mask is None else mask & live
    if mask is None or bool(mask.all()):
        return None
    return np.flatnonzero(mask)


@settings(max_examples=300, deadline=None)
@given(tables(), predicates())
def test_candidate_positions_equal_the_dense_reference(table, predicate):
    catalog = Catalog([table])
    manager = AccessPathManager(catalog)
    for column, kind in INDEXED.items():
        manager.create_index("t", column, kind=kind)
    found = manager.candidates("t", predicate)
    expected = reference_candidates(predicate, table)
    if expected is None:
        assert found is None
        return
    assert found is not None
    assert found.dtype == np.int64
    assert found.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scan_slice_and_morsel_skip_match_the_mask(data):
    n = data.draw(st.integers(0, 120))
    page_size = data.draw(st.sampled_from([1, 4, 16]))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    deletes = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    positions = np.flatnonzero(mask)

    in_range = candidates_in_range(positions, start, stop)
    assert in_range.tolist() == (np.flatnonzero(mask[start:stop]) + start).tolist()
    # The morsel driver skips a partition exactly when its slice is empty.
    assert bool(in_range.size) == bool(mask[start:stop].any())

    table = Table(
        "t", [Column("v", np.arange(n), page_size=page_size)], delete_mask=deletes
    )
    partition = TablePartition(table, 0, start, stop)
    scan = ScanPhysical("t", table, partition, node_id=0, candidates=positions)
    expected = table.live_positions_in(np.flatnonzero(mask[start:stop]) + start)
    assert scan._pruned_indices(ExecContext()).tolist() == expected.tolist()
