"""Vectorized equi-join kernel.

Both execution models implement their joins as hash joins (Section 2.5.3 and
Section 4.1).  In Python the equivalent vectorized kernel is a direct-address
table: group the smaller ("build") side's rows by key, count the rows per key
with ``bincount``, and look every key of the other ("probe") side up in that
table to expand the matching ranges.  The result — all matching
``(left, right)`` index pairs — is exactly what a hash join produces, with the
same output cardinality, so the work accounting downstream is unaffected.
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
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    left_valid = np.flatnonzero(left_keys >= 0)
    right_valid = np.flatnonzero(right_keys >= 0)
    empty = np.empty(0, dtype=np.int64)
    if left_valid.size == 0 or right_valid.size == 0:
        return empty, empty

    swapped = not builds_on_left(left_valid.size, right_valid.size)
    build_keys, probe_keys = left_keys[left_valid], right_keys[right_valid]
    if swapped:
        build_keys, probe_keys = probe_keys, build_keys

    # Build rows grouped by key: rows of key k sit at order[starts[k]:][:counts[k]].
    counts = np.bincount(build_keys, minlength=int(probe_keys.max()) + 1)
    order = _stable_argsort(build_keys, counts.size)
    starts = np.cumsum(counts) - counts

    matches = counts[probe_keys]
    total = int(matches.sum())
    if total == 0:
        return empty, empty
    probe_expanded = np.repeat(np.arange(probe_keys.size, dtype=np.int64), matches)
    first_output = np.cumsum(matches) - matches
    build_expanded = order[
        np.repeat(starts[probe_keys] - first_output, matches)
        + np.arange(total, dtype=np.int64)
    ]

    if not swapped:
        return left_valid[build_expanded], right_valid[probe_expanded]
    # Pairs are left-major here; a stable sort on the right index restores the
    # right-major / left-ascending order of a left-side build.
    restore = _stable_argsort(build_expanded, build_keys.size)
    return left_valid[probe_expanded[restore]], right_valid[build_expanded[restore]]
