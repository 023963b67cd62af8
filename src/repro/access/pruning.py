"""Deriving what a scan may prune on, and composing candidate row sets.

**Which rows may a base-table scan drop?**  A query's final rows are those
where the whole WHERE predicate evaluates to TRUE, so a scan of alias ``a``
may drop any row that provably cannot appear in such a result — any row
where some predicate *implied by* the WHERE clause and referencing only
``a`` is not TRUE (FALSE and UNKNOWN are equally safe to drop; implication
under three-valued logic means "WHERE TRUE ⇒ implied TRUE").
:func:`implied_alias_predicate` extracts the strongest such predicate by
recursion:

* a base predicate referencing only ``a`` implies itself;
* a conjunction implies the conjunction of whatever its conjuncts imply
  (conjuncts implying nothing are simply skipped);
* a disjunction implies the disjunction of its branches' implications —
  but only when *every* branch implies something;
* anything under a NOT is conservatively skipped.

**How is the candidate set built?**  :func:`candidate_positions` mirrors
that recursion over the implied predicate, asking per base predicate for
either an exact TRUE-row set (a secondary index: sorted, unique ``int64``
row positions) or a superset (a zone map's :class:`PageMask`).  Supersets
stay supersets under the composition rules: AND intersects whatever
evidence exists, OR unions only when every branch has evidence.  The result
is therefore always a sound superset of the rows the scan must produce.

Composition costs what the evidence holds, never the table's length: a page
mask stays one flag per page until it is the final set or an OR operand
beside exact positions, and an AND with exact positions keeps the positions
whose page is kept (``positions[keep[positions // page_size]]``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.expr.ast import AndExpr, BooleanExpr, NotExpr, OrExpr, flatten


def implied_alias_predicate(predicate: BooleanExpr | None, alias: str) -> BooleanExpr | None:
    """The strongest single-alias predicate implied by ``predicate``.

    Returns ``None`` when nothing about ``alias`` is implied (cross-table
    comparisons, negations, or branches mentioning other tables only).
    """
    if predicate is None:
        return None
    implied = _implied(flatten(predicate), alias)
    return flatten(implied) if implied is not None else None


def _implied(predicate: BooleanExpr, alias: str) -> BooleanExpr | None:
    if isinstance(predicate, NotExpr):
        return None
    if isinstance(predicate, AndExpr):
        parts = [
            part
            for part in (_implied(child, alias) for child in predicate.children())
            if part is not None
        ]
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else AndExpr(parts)
    if isinstance(predicate, OrExpr):
        parts = []
        for child in predicate.children():
            part = _implied(child, alias)
            if part is None:
                return None
            parts.append(part)
        return parts[0] if len(parts) == 1 else OrExpr(parts)
    if predicate.tables() == frozenset({alias}):
        return predicate
    return None


@dataclass(frozen=True)
class PageMask:
    """Page-granular evidence: which pages *may* hold a row where a predicate is TRUE.

    ``keep`` has one flag per page of a ``num_rows``-row column cut into
    ``page_size``-row pages (the last page may be short).
    """

    keep: np.ndarray
    page_size: int
    num_rows: int

    def rows(self) -> np.ndarray:
        """Row positions of the kept pages, ascending."""
        pages = np.flatnonzero(self.keep)
        rows = (pages[:, None] * self.page_size + np.arange(self.page_size)).ravel()
        return rows[: np.searchsorted(rows, self.num_rows)]

    def filter(self, positions: np.ndarray) -> np.ndarray:
        """The ``positions`` that lie on a kept page (order preserved)."""
        return positions[self.keep[positions // self.page_size]]


#: Signature of the per-base-predicate evidence callbacks: return sorted
#: unique ``int64`` row positions (exact), a :class:`PageMask` (superset),
#: or None when no evidence exists for that predicate.
EvidenceFn = Callable[[BooleanExpr], "np.ndarray | PageMask | None"]


def candidate_positions(predicate: BooleanExpr, evidence: EvidenceFn) -> np.ndarray | None:
    """Compose per-base-predicate evidence into one candidate row set.

    ``evidence`` is consulted for every base predicate; AND intersects the
    sets that exist, OR unions them only when every branch produced one.
    Returns sorted unique ``int64`` row positions, or ``None`` when no
    pruning evidence exists anywhere or a page mask that keeps every page is
    all there is.
    """
    composed = _compose(predicate, evidence)
    if isinstance(composed, PageMask):
        return None if bool(composed.keep.all()) else composed.rows()
    return composed


def _compose(predicate: BooleanExpr, evidence: EvidenceFn):
    if isinstance(predicate, NotExpr):
        return None
    if isinstance(predicate, AndExpr):
        combined = None
        for child in predicate.children():
            part = _compose(child, evidence)
            if part is not None:
                combined = part if combined is None else _and(combined, part)
        return combined
    if isinstance(predicate, OrExpr):
        combined = None
        for child in predicate.children():
            part = _compose(child, evidence)
            if part is None:
                return None
            combined = part if combined is None else _or(combined, part)
        return combined
    return evidence(predicate)


def _same_pages(left, right) -> bool:
    return (
        isinstance(left, PageMask)
        and isinstance(right, PageMask)
        and left.page_size == right.page_size
    )


def _rows(evidence) -> np.ndarray:
    return evidence.rows() if isinstance(evidence, PageMask) else evidence


def _and(left, right):
    if _same_pages(left, right):
        return PageMask(left.keep & right.keep, left.page_size, left.num_rows)
    if isinstance(left, PageMask):
        left, right = right, left  # AND is symmetric: any page mask goes right
    if isinstance(right, PageMask):
        return right.filter(_rows(left))
    return _intersect_sorted(left, right)


def _or(left, right):
    if _same_pages(left, right):
        return PageMask(left.keep | right.keep, left.page_size, left.num_rows)
    return np.union1d(_rows(left), _rows(right))


def _intersect_sorted(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The positions in both sorted unique arrays: O(small · log large)."""
    if left.size > right.size:
        left, right = right, left
    if left.size == 0:
        return left
    slots = np.searchsorted(right, left)
    slots[slots == right.size] = 0
    return left[right[slots] == left]
