"""Vectorized equi-join kernel.

Both execution models implement their joins as hash joins (Section 2.5.3 and
Section 4.1).  In Python the equivalent vectorized kernel is a direct-address
table: group the smaller ("build") side's rows by key, count the rows per key
with ``bincount``, and look every key of the other ("probe") side up in that
table to expand the matching ranges.  The result — all matching
``(left, right)`` index pairs — is exactly what a hash join produces, with the
same output cardinality, so the work accounting downstream is unaffected.

When no probe row has two partners (every primary-key/foreign-key join probed
from the foreign-key side), each hit is one pair: the pairs are the hit probe
rows and the one build row of each one's key, with no range expansion.  A side
without NULL keys is used as it is, with no gather in or out.
"""

from __future__ import annotations

import numpy as np


def builds_on_left(left_rows: int, right_rows: int) -> bool:
    """The build-side rule: the smaller side is built, the left one on ties."""
    return left_rows <= right_rows


def _stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integers in ``[0, bound)`` in linear time.

    NumPy radix-sorts 16-bit keys, so sort one 16-bit digit at a time, least
    significant first (a comparison sort of int64 is several times slower).
    """
    order = np.argsort(values.astype(np.uint16), kind="stable")
    for shift in range(16, (bound - 1).bit_length(), 16):
        digit = (values[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def _non_null(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The non-NULL keys and their positions (``None`` when no key is NULL:
    then the keys are returned as they are, and positions need no gather)."""
    valid = keys >= 0
    if valid.all():
        return keys, None
    positions = np.flatnonzero(valid)
    return keys[positions], positions


def _at(positions: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    return rows if positions is None else positions[rows]


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return index pairs ``(left_idx, right_idx)`` where keys are equal.

    Both inputs must be *dense* integer key arrays — the table is as long as
    the largest key — which is what
    :func:`repro.utils.keys.composite_keys` produces for arbitrary columns.
    Negative keys are treated as "never matches" (the encoding for NULL join
    keys, which SQL joins drop).  Pairs come out right-major with ascending
    left indices within one right row, whichever side was built.
    """
    left_keys, left_valid = _non_null(np.asarray(left_keys))
    right_keys, right_valid = _non_null(np.asarray(right_keys))
    empty = np.empty(0, dtype=np.int64)
    if left_keys.size == 0 or right_keys.size == 0:
        return empty, empty

    swapped = not builds_on_left(left_keys.size, right_keys.size)
    build_keys, probe_keys = (right_keys, left_keys) if swapped else (left_keys, right_keys)

    # Build rows grouped by key: rows of key k sit at order[starts[k]:][:counts[k]].
    counts = np.bincount(build_keys, minlength=int(probe_keys.max()) + 1)
    order = _stable_argsort(build_keys, counts.size)
    starts = np.cumsum(counts) - counts

    matches = counts[probe_keys]
    hit = np.flatnonzero(matches)
    if hit.size == 0:
        return empty, empty
    total = int(matches.sum())
    if total == hit.size:  # no probe row has two partners
        probe_expanded = hit
        build_expanded = order[starts[probe_keys[hit]]]
    else:
        probe_expanded = np.repeat(np.arange(probe_keys.size, dtype=np.int64), matches)
        first_output = np.cumsum(matches) - matches
        build_expanded = order[
            np.repeat(starts[probe_keys] - first_output, matches)
            + np.arange(total, dtype=np.int64)
        ]

    if not swapped:
        return _at(left_valid, build_expanded), _at(right_valid, probe_expanded)
    # Pairs are left-major here; a stable sort on the right index restores the
    # right-major / left-ascending order of a left-side build.
    restore = _stable_argsort(build_expanded, build_keys.size)
    return _at(left_valid, probe_expanded[restore]), _at(right_valid, build_expanded[restore])
