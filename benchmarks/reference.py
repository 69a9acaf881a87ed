"""Independent symplectic reference for building inputs and checking outputs.

Pauli rows are text ("XZIY") or ``(x, z)`` bit pairs, bit i being qubit
i + 1, with the same real sign convention as qpaste (Y = X.Z, so every
product carries a sign of +1 or -1 and no complex phase).  Nothing here
imports qpaste: expected verdicts and distances never come from the code
under test.
"""

from __future__ import annotations

from itertools import combinations, product

FACTOR_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
BITS_FACTOR = {bits: ch for ch, bits in FACTOR_BITS.items()}
ERROR_FACTORS = ((1, 0), (1, 1), (0, 1))  # X, Y, Z: qpaste's enumeration order


def to_bits(row: str) -> tuple[int, int]:
    x = z = 0
    for i, ch in enumerate(row):
        xb, zb = FACTOR_BITS[ch]
        x |= xb << i
        z |= zb << i
    return x, z


def to_text(n: int, x: int, z: int) -> str:
    return "".join(BITS_FACTOR[((x >> i) & 1, (z >> i) & 1)] for i in range(n))


def anticommute(p: tuple[int, int], q: tuple[int, int]) -> int:
    return ((p[0] & q[1]).bit_count() + (p[1] & q[0]).bit_count()) & 1


def multiply(p: tuple[int, int, int], q: tuple[int, int, int]) -> tuple[int, int, int]:
    """Signed product of (x, z, sign) triples: Z-type of p passing X-type of q flips."""
    flips = (p[1] & q[0]).bit_count() & 1
    return p[0] ^ q[0], p[1] ^ q[1], p[2] * q[2] * (-1 if flips else 1)


def adjoint(p: tuple[int, int, int]) -> tuple[int, int, int]:
    """Transpose of a real Pauli product: the sign flips with an odd Y count."""
    return p[0], p[1], -p[2] if (p[0] & p[1]).bit_count() & 1 else p[2]


def gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


class RefCode:
    """A generator list with sign-exact group membership by its own elimination."""

    def __init__(self, rows: list[str]):
        self.n = len(rows[0])
        self.gens = [to_bits(r) for r in rows]
        self._pivots: dict[int, tuple[int, int]] = {}  # top bit -> (row, combination)
        self.rank = 0
        for i, (x, z) in enumerate(self.gens):
            row, combo = self._reduce(x | (z << self.n), 1 << i)
            if row:
                self._pivots[row.bit_length() - 1] = (row, combo)
                self.rank += 1

    def _reduce(self, row: int, combo: int) -> tuple[int, int]:
        while row:
            top = row.bit_length() - 1
            pivot = self._pivots.get(top)
            if pivot is None:
                break
            row ^= pivot[0]
            combo ^= pivot[1]
        return row, combo

    def valid(self) -> bool:
        """Every generator squares to +1, all commute, and they are independent."""
        if any((x & z).bit_count() & 1 for x, z in self.gens):
            return False
        if any(anticommute(p, q) for p, q in combinations(self.gens, 2)):
            return False
        return self.rank == len(self.gens)

    def syndrome(self, x: int, z: int) -> int:
        out = 0
        for i, g in enumerate(self.gens):
            out |= anticommute(g, (x, z)) << i
        return out

    def group_sign(self, x: int, z: int) -> int | None:
        """Sign s with s * (x, z) in the group, or None when the bits are outside it."""
        row, combo = self._reduce(x | (z << self.n), 0)
        if row:
            return None
        acc = (0, 0, 1)
        for i, (gx, gz) in enumerate(self.gens):
            if (combo >> i) & 1:
                acc = multiply(acc, (gx, gz, 1))
        return acc[2]

    def weight1(self) -> list[tuple[int, int, int]]:
        """(x, z, syndrome) of the 3n + 1 weight-<=1 errors, identity first."""
        out = [(0, 0, 0)]
        for q in range(self.n):
            for xb, zb in ERROR_FACTORS:
                x, z = xb << q, zb << q
                out.append((x, z, self.syndrome(x, z)))
        return out

    def distance(self, max_weight: int) -> int | None:
        """Brute force: least weight of a commuting operator outside +-S."""
        for w in range(1, max_weight + 1):
            for qubits in combinations(range(self.n), w):
                for factors in product(ERROR_FACTORS, repeat=w):
                    x = z = 0
                    for q, (xb, zb) in zip(qubits, factors):
                        x |= xb << q
                        z |= zb << q
                    if self.syndrome(x, z) == 0 and self.group_sign(x, z) is None:
                        return w
        return None

    def nondegenerate_distance(self) -> int | None:
        """Distance of a code whose weight-1 syndromes are nonzero, from its table.

        Returns 2 when two weight-1 errors collide outside the group, 3 when
        they are all distinct and three of them multiply to a logical
        operator, and None when neither holds.
        """
        errors = self.weight1()[1:]
        if any(s == 0 for _, _, s in errors):
            return None
        table: dict[int, tuple[int, int]] = {}
        for x, z, s in errors:
            if s in table:
                fx, fz = table[s]
                return 2 if self.group_sign(x ^ fx, z ^ fz) is None else None
            table[s] = (x, z)
        for (x1, z1, s1), (x2, z2, s2) in combinations(errors, 2):
            support = x1 | z1 | x2 | z2
            if support.bit_count() != 2:
                continue
            hit = table.get(s1 ^ s2)
            if hit is None or (hit[0] | hit[1]) & support:
                continue
            if self.group_sign(x1 ^ x2 ^ hit[0], z1 ^ z2 ^ hit[1]) is None:
                return 3
        return None


def hamming_status(n: int, k: int) -> str:
    lhs, rhs = (3 * n + 1) << k, 1 << n
    return "violated" if lhs > rhs else "saturated" if lhs == rhs else "satisfied"


def best_k(n: int) -> int | None:
    lhs, rhs = 3 * n + 1, 1 << n
    if lhs > rhs:
        return None
    k = 0
    while lhs << (k + 1) <= rhs:
        k += 1
    return k
