"""Bit-packed linear algebra over GF(2).

Rows are plain Python ints used as bitsets; column ``i`` is bit ``i``.
Arbitrary-precision ints make row operations O(width / wordsize).
"""

from __future__ import annotations

from typing import Iterable


class Eliminator:
    """Incremental Gaussian elimination with combination tracking.

    Every inserted row is tagged in the bits above ``width``, so reducing a
    vector also records which of the inserted rows XOR to it.
    """

    def __init__(self, width: int, rows: Iterable[int] = ()):
        self.width = width
        self._mask = (1 << width) - 1
        self._pivots: list[tuple[int, int]] = []
        self._count = 0
        self.dependent: list[int] = []
        for row in rows:
            self.add(row)

    def _reduce(self, aug: int) -> int:
        for col, pivot_row in self._pivots:
            if (aug >> col) & 1:
                aug ^= pivot_row
        return aug

    def add(self, row: int) -> bool:
        """Insert a row; return True when it enlarged the span."""
        index = self._count
        self._count += 1
        aug = self._reduce(row | (1 << (self.width + index)))
        data = aug & self._mask
        if data == 0:
            self.dependent.append(index)
            return False
        col = (data & -data).bit_length() - 1
        self._pivots.append((col, aug))
        return True

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def solve(self, target: int) -> int | None:
        """Bitmask of inserted rows XORing to ``target``, or None."""
        aug = self._reduce(target)
        if aug & self._mask:
            return None
        return aug >> self.width

