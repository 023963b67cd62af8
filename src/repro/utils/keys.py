"""Encoding of (possibly composite, possibly non-integer) join keys.

The join kernel works on dense non-negative int64 keys.  ``composite_keys``
maps one or more value columns — of any type — into such keys, assigning equal
tuples equal codes across both inputs.  NULL keys are encoded as ``-1`` so the
kernel drops them, matching SQL equi-join semantics.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Integer column pairs spanning at most this many values are offset by their
#: common minimum instead of factorized.
_MAX_OFFSET_SPAN = 1 << 31
#: Running keys are re-compressed before a fold could leave this code space
#: (int64 would wrap silently and the kernel would drop the keys as NULLs).
_MAX_KEY_SPACE = 1 << 62
#: Keys are returned dense — a code space of at most this many times the row
#: count — so the kernel can address a table by key.
_DENSE_FACTOR = 8


def _factorize_pair(
    left_values: np.ndarray, right_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Map two value arrays onto shared integer codes.

    Returns ``(left_codes, right_codes, num_codes)``; equal values get equal
    codes regardless of which side they came from.
    """
    combined = np.concatenate([left_values, right_values])
    _unique, inverse = np.unique(combined, return_inverse=True)
    left_codes = inverse[: left_values.size].astype(np.int64)
    right_codes = inverse[left_values.size:].astype(np.int64)
    return left_codes, right_codes, int(_unique.size)


def _encode_pair(
    left_values: np.ndarray, right_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Codes in ``[0, num_codes)`` for both arrays; equal values, equal codes.

    Integer-typed pairs (ids, dictionary codes, booleans) of a narrow enough
    span are offset by their common minimum — no sort; everything else is
    factorized.
    """
    pair = (left_values, right_values)
    if all(np.can_cast(values.dtype, np.int64) and values.size for values in pair):
        low = min(int(values.min()) for values in pair)
        span = max(int(values.max()) for values in pair) - low + 1
        if span <= _MAX_OFFSET_SPAN:
            left_codes, right_codes = (values.astype(np.int64, copy=False) - low for values in pair)
            return left_codes, right_codes, span
    return _factorize_pair(left_values, right_values)


def composite_keys(
    left_columns: Sequence[tuple[np.ndarray, np.ndarray]],
    right_columns: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one or more join columns into int64 keys for both sides.

    Args:
        left_columns: per join condition, ``(values, nulls)`` for the left
            input's column.
        right_columns: per join condition, ``(values, nulls)`` for the right
            input's column (same order as ``left_columns``).

    Returns:
        ``(left_keys, right_keys)`` where NULL rows carry key ``-1``.
    """
    if len(left_columns) != len(right_columns):
        raise ValueError("left and right column lists must have the same length")
    if not left_columns:
        raise ValueError("at least one join column is required")

    left_size = left_columns[0][0].shape[0]
    right_size = right_columns[0][0].shape[0]
    left_nulls = np.zeros(left_size, dtype=np.bool_)
    right_nulls = np.zeros(right_size, dtype=np.bool_)

    key_space = 0  # keys lie in [0, key_space); 0 until the first column
    for (left_values, left_null_mask), (right_values, right_null_mask) in zip(
        left_columns, right_columns
    ):
        left_codes, right_codes, num_codes = _encode_pair(
            np.asarray(left_values), np.asarray(right_values)
        )
        stride = max(num_codes, 1)
        if key_space == 0:
            left_keys, right_keys, key_space = left_codes, right_codes, stride
        else:
            if key_space * stride > _MAX_KEY_SPACE:
                left_keys, right_keys, key_space = _factorize_pair(left_keys, right_keys)
            left_keys = left_keys * stride + left_codes
            right_keys = right_keys * stride + right_codes
            key_space *= stride
        left_nulls |= np.asarray(left_null_mask, dtype=np.bool_)
        right_nulls |= np.asarray(right_null_mask, dtype=np.bool_)

    if key_space > _DENSE_FACTOR * (left_size + right_size):
        left_keys, right_keys, key_space = _factorize_pair(left_keys, right_keys)
    left_keys[left_nulls] = -1
    right_keys[right_nulls] = -1
    return left_keys, right_keys
