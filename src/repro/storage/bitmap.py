"""Row-selection bitmaps.

Tagged relations map each tag to a bitmap over the rows of the underlying
index relation (Section 2.5.1).  Filters rewrite bitmaps instead of moving
tuples, and joins union bitmaps to decide which rows participate.  The
implementation wraps a NumPy boolean array so the common operations (AND, OR,
NOT, count, iterate set positions) are all vectorized.  An all-set bitmap —
the one slice of every scan, and of every join with one output tag — builds
its array only when something asks for the mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


class Bitmap:
    """A fixed-length bitmap over row positions ``0 .. size-1``."""

    __slots__ = ("_bits", "_size", "_count")

    def __init__(self, bits: np.ndarray) -> None:
        if bits.dtype != np.bool_:
            bits = bits.astype(np.bool_)
        self._bits: np.ndarray | None = bits
        self._size = int(bits.shape[0])
        #: Set-bit count, computed once: a bitmap is never mutated.
        self._count: int | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, size: int) -> "Bitmap":
        """A bitmap of ``size`` bits, all clear."""
        return cls(np.zeros(size, dtype=np.bool_))

    @classmethod
    def full(cls, size: int) -> "Bitmap":
        """A bitmap of ``size`` bits, all set (its mask is built on first use)."""
        bitmap = cls.__new__(cls)
        bitmap._bits, bitmap._size, bitmap._count = None, size, size
        return bitmap

    @classmethod
    def from_positions(cls, size: int, positions: Iterable[int]) -> "Bitmap":
        """A bitmap with exactly the given positions set."""
        bits = np.zeros(size, dtype=np.bool_)
        positions = np.fromiter(positions, dtype=np.int64)
        if positions.size:
            if positions.min() < 0 or positions.max() >= size:
                raise IndexError("bitmap position out of range")
            bits[positions] = True
        return cls(bits)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Bitmap":
        """Wrap an existing boolean mask (copied to avoid aliasing)."""
        return cls(np.array(mask, dtype=np.bool_, copy=True))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of addressable row positions."""
        return self._size

    @property
    def mask(self) -> np.ndarray:
        """The underlying boolean array (do not mutate)."""
        if self._bits is None:
            self._bits = np.ones(self._size, dtype=np.bool_)
        return self._bits

    def count(self) -> int:
        """Number of set bits."""
        if self._count is None:
            self._count = int(np.count_nonzero(self._bits))
        return self._count

    def is_empty(self) -> bool:
        """True when no bit is set."""
        if self._count is not None:
            return self._count == 0
        return not bool(self._bits.any())

    def positions(self) -> np.ndarray:
        """Indices of the set bits, ascending."""
        if self._count == self._size:
            return np.arange(self._size, dtype=np.int64)
        return np.flatnonzero(self.mask)

    def selectivity(self) -> float:
        """Fraction of bits set (0.0 for an empty bitmap of size 0)."""
        if self.size == 0:
            return 0.0
        return self.count() / self.size

    def get(self, position: int) -> bool:
        """Whether ``position`` is set."""
        return bool(self.mask[position])

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions().tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.size == other.size and bool(np.array_equal(self.mask, other.mask))

    def __hash__(self) -> int:  # pragma: no cover - bitmaps are not dict keys
        return hash((self.size, self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"Bitmap(size={self.size}, set={self.count()})"

    # ------------------------------------------------------------------ #
    # Set algebra
    # ------------------------------------------------------------------ #
    def _check_size(self, other: "Bitmap") -> None:
        if self.size != other.size:
            raise ValueError(
                f"bitmap size mismatch: {self.size} vs {other.size}"
            )

    def union(self, other: "Bitmap") -> "Bitmap":
        """Bitwise OR."""
        self._check_size(other)
        return Bitmap(self.mask | other.mask)

    def intersection(self, other: "Bitmap") -> "Bitmap":
        """Bitwise AND."""
        self._check_size(other)
        return Bitmap(self.mask & other.mask)

    def difference(self, other: "Bitmap") -> "Bitmap":
        """Bits set in self but not in other."""
        self._check_size(other)
        return Bitmap(self.mask & ~other.mask)

    def complement(self) -> "Bitmap":
        """Bitwise NOT."""
        return Bitmap(~self.mask)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        return self.union(other)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        return self.intersection(other)

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        return self.difference(other)

    def __invert__(self) -> "Bitmap":
        return self.complement()

    @staticmethod
    def union_all(bitmaps: Iterable["Bitmap"], size: int | None = None) -> "Bitmap":
        """Union an iterable of bitmaps; ``size`` is required if it is empty."""
        result: Bitmap | None = None
        for bitmap in bitmaps:
            result = bitmap if result is None else result.union(bitmap)
        if result is None:
            if size is None:
                raise ValueError("union_all of no bitmaps requires an explicit size")
            return Bitmap.empty(size)
        return result
