"""Bit-packed linear algebra over GF(2).

Rows are plain Python ints used as bitsets; column ``i`` is bit ``i``.
Arbitrary-precision ints make row operations O(width / wordsize).
"""

from __future__ import annotations

from typing import Iterable


class Eliminator:
    """Incremental Gaussian elimination with combination tracking.

    Every inserted row is tagged in the bits above ``width``, so reducing a
    vector also records which of the inserted rows XOR to it.  Each pivot
    is kept with its column's bit, so reducing tests ``aug & bit`` rather
    than shifting the whole row once per pivot.
    """

    def __init__(self, width: int, rows: Iterable[int] = ()):
        self.width = width
        self._mask = (1 << width) - 1
        self._pivots: list[tuple[int, int]] = []  # (pivot column's bit, row)
        self._count = 0
        self.dependent: list[int] = []
        for row in rows:
            self.add(row)

    def _reduce(self, aug: int) -> int:
        for bit, pivot_row in self._pivots:
            if aug & bit:
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
        self._pivots.append((data & -data, aug))
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

