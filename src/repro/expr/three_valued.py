"""Three-valued (SQL) logic kernels.

SQL predicates over NULL values evaluate to UNKNOWN rather than TRUE or
FALSE.  Section 3.4 of the paper extends tagged execution to this
three-valued logic; the kernels here implement the truth tables from the SQL
standard over whole NumPy arrays so both the expression evaluator and the tag
generalization algorithm can share them.

Truth values are encoded as ``uint8``:

* ``FALSE``   = 0
* ``TRUE``    = 1
* ``UNKNOWN`` = 2

The encoding is chosen so that ``value == TRUE`` gives the usual "passes the
filter" boolean mask directly.
"""

from __future__ import annotations

import enum

import numpy as np


class TruthValue(enum.IntEnum):
    """A single three-valued-logic truth value."""

    FALSE = 0
    TRUE = 1
    UNKNOWN = 2

    def __str__(self) -> str:
        return {TruthValue.FALSE: "F", TruthValue.TRUE: "T", TruthValue.UNKNOWN: "U"}[self]

    @classmethod
    def from_bool(cls, value: bool) -> "TruthValue":
        """Lift a Python boolean into the three-valued domain."""
        return cls.TRUE if value else cls.FALSE


FALSE = TruthValue.FALSE
TRUE = TruthValue.TRUE
UNKNOWN = TruthValue.UNKNOWN

_TV_DTYPE = np.uint8


def from_bool_array(mask: np.ndarray, nulls: np.ndarray | None = None) -> np.ndarray:
    """Convert a boolean mask (plus optional NULL mask) into truth values.

    Rows where ``nulls`` is set become UNKNOWN regardless of the mask.
    """
    result = mask.astype(_TV_DTYPE)
    if nulls is not None and nulls.any():
        result[nulls] = int(UNKNOWN)
    return result


def is_true(values: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose truth value is TRUE."""
    return values == int(TRUE)


def is_false(values: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose truth value is FALSE."""
    return values == int(FALSE)


def is_unknown(values: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose truth value is UNKNOWN."""
    return values == int(UNKNOWN)


def logical_not(values: np.ndarray) -> np.ndarray:
    """NOT under three-valued logic (UNKNOWN stays UNKNOWN)."""
    result = np.empty_like(values)
    result[values == int(TRUE)] = int(FALSE)
    result[values == int(FALSE)] = int(TRUE)
    result[values == int(UNKNOWN)] = int(UNKNOWN)
    return result


def logical_and(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """AND under three-valued logic.

    FALSE dominates; UNKNOWN AND TRUE = UNKNOWN.
    """
    result = np.full(left.shape, int(UNKNOWN), dtype=_TV_DTYPE)
    result[(left == int(TRUE)) & (right == int(TRUE))] = int(TRUE)
    result[(left == int(FALSE)) | (right == int(FALSE))] = int(FALSE)
    return result


def logical_or(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """OR under three-valued logic.

    TRUE dominates; UNKNOWN OR FALSE = UNKNOWN.
    """
    result = np.full(left.shape, int(UNKNOWN), dtype=_TV_DTYPE)
    result[(left == int(FALSE)) & (right == int(FALSE))] = int(FALSE)
    result[(left == int(TRUE)) | (right == int(TRUE))] = int(TRUE)
    return result


def and_all(operands: list[np.ndarray]) -> np.ndarray:
    """AND a non-empty list of truth-value arrays."""
    if not operands:
        raise ValueError("and_all requires at least one operand")
    result = operands[0]
    for operand in operands[1:]:
        result = logical_and(result, operand)
    return result


def or_all(operands: list[np.ndarray]) -> np.ndarray:
    """OR a non-empty list of truth-value arrays."""
    if not operands:
        raise ValueError("or_all requires at least one operand")
    result = operands[0]
    for operand in operands[1:]:
        result = logical_or(result, operand)
    return result


def scalar_not(value: TruthValue) -> TruthValue:
    """NOT for a single truth value."""
    if value is TRUE:
        return FALSE
    if value is FALSE:
        return TRUE
    return UNKNOWN


def scalar_and(left: TruthValue, right: TruthValue) -> TruthValue:
    """AND for single truth values."""
    if left is FALSE or right is FALSE:
        return FALSE
    if left is TRUE and right is TRUE:
        return TRUE
    return UNKNOWN


def scalar_or(left: TruthValue, right: TruthValue) -> TruthValue:
    """OR for single truth values."""
    if left is TRUE or right is TRUE:
        return TRUE
    if left is FALSE and right is FALSE:
        return FALSE
    return UNKNOWN
