"""Stabilizer groups given by generator lists.

A code is an ordered list of commuting, independent, square-to-+1 Pauli
products, all with sign +1.  Generators are kept in the given order and
never silently re-echeloned: the syndrome bit order is the generator
order.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Iterable, NamedTuple

from . import gf2
from .pauli import PauliOperator, identity, multiply, y_count

_LITTLE_ENDIAN = sys.byteorder == "little"


class InvalidCodeError(ValueError):
    """An operation required a valid code but validation failed."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = "; ".join(str(v) for v in report.violations)
        super().__init__(f"invalid stabilizer code: {lines}")


def _pack(p: PauliOperator) -> int:
    """Symplectic row bitset: x part in the low n bits, z part above."""
    return p.x | (p.z << p.n)


# (shift, mask) of the three delta swaps that transpose an 8x8 bit matrix
# held in a 64-bit word, row j in byte j (Hacker's Delight, section 7-3).
_DELTA_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


class StabilizerCode:
    """Ordered generator list over a fixed qubit count.

    Construction checks only shape (equal lengths, +1 signs); the group
    invariants are checked by :func:`validate` so that broken inputs can be
    reported rather than refused.  A pasting template is such a list whose
    identity rows are placeholders; with any, it fails :func:`validate`
    (rank).  Instances are immutable; the packed symplectic rows and the
    GF(2) elimination cache used for membership tests are built eagerly,
    the validation report and the weight-<=1 syndrome keys on first use.
    """

    def __init__(self, generators: Iterable[PauliOperator], n: int | None = None):
        gens = tuple(generators)
        if n is None:
            if not gens:
                raise ValueError("qubit count required for an empty generator list")
            n = gens[0].n
        if n < 1:
            raise ValueError("a generator list needs at least one qubit")
        for i, g in enumerate(gens, start=1):
            if g.n != n:
                raise ValueError(f"generator {i} acts on {g.n} qubits, expected {n}")
            if g.sign != 1:
                raise ValueError(f"generator {i} must have sign +1")
        self.n = n
        self.generators = gens
        self._packed = tuple([_pack(g) for g in gens])
        self._elim = gf2.Eliminator(2 * self.n, self._packed)

    @property
    def a(self) -> int:
        return len(self.generators)

    @cached_property
    def _syndrome_keys(self) -> list[int]:
        """Syndrome key of each weight-<=1 error, in ``enumerate_errors(n, 1)``
        order: 0 for the identity, then X, Y, Z on each qubit in turn.

        Generator j is bit j of a key.  X on qubit i anticommutes with the
        generators whose z part has bit i, Z with those whose x part has it,
        and Y = X.Z with exactly one of the two, so the keys are the columns
        of the generators' z, x ^ z and x parts, interleaved.  The Y lanes
        are one XOR of the X and Z lanes, and each part fills every third
        lane with one strided write.
        """
        n = self.n
        rows = self._packed
        # Eight rows at a time become one int whose byte i holds column i of
        # those rows, row j at bit j: the rows' little-endian bytes are
        # interleaved, so 64-bit word m is the 8x8 bit matrix of each row's
        # byte m, and the delta swaps transpose every word at once.  The bytes
        # of eight groups fill each 8-byte lane in the host's byte order, so
        # one native cast reads 64 rows of every key.
        row_bytes = (2 * n + 7) // 8
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * row_bytes, "little")
        swaps = [(shift, mask * ones) for shift, mask in _DELTA_SWAPS]
        low = (1 << 8 * n) - 1
        keys = [0] * (3 * n + 1)
        for start in range(0, len(rows), 64):
            lanes = bytearray(8 * len(keys))
            for byte, first in enumerate(range(start, min(start + 64, len(rows)), 8)):
                words = bytearray(8 * row_bytes)
                for j, row in enumerate(rows[first : first + 8]):
                    words[j::8] = row.to_bytes(row_bytes, "little")
                columns = int.from_bytes(words, "little")
                for shift, mask in swaps:
                    t = (columns ^ (columns >> shift)) & mask
                    columns ^= t ^ (t << shift)
                offset = byte if _LITTLE_ENDIAN else 7 - byte
                # Bytes 0..n-1 hold the columns of the x parts, bytes n..2n-1 those of the z parts.
                x = columns & low
                z = columns >> 8 * n
                lanes[8 + offset :: 24] = z.to_bytes(n, "little")
                lanes[16 + offset :: 24] = (x ^ z).to_bytes(n, "little")
                lanes[24 + offset :: 24] = x.to_bytes(n, "little")
            block = memoryview(lanes).cast("Q").tolist()
            keys = block if not start else [c | (b << start) for c, b in zip(keys, block)]
        return keys

    @cached_property
    def _validation(self) -> ValidationReport:
        return _check_invariants(self)

    def __eq__(self, other) -> bool:
        """Bit-exact equality: same qubit count and same ordered rows."""
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return self.n == other.n and self.generators == other.generators

    def __hash__(self) -> int:
        return hash((self.n, self.generators))

    def __repr__(self) -> str:
        return f"StabilizerCode(n={self.n}, a={self.a})"


class Violation(NamedTuple):
    """One failed generator-set invariant; indices are 1-based."""

    kind: str  # "anticommute" | "square" | "rank"
    rows: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.rows}: {self.detail}"


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def validate(code: StabilizerCode) -> ValidationReport:
    """Check commutation, squaring to +1 and GF(2) independence.

    Returns a report rather than raising, so invalid inputs can be
    diagnosed; violations name the offending generator rows (1-based).
    The report is computed once per code object.
    """
    return code._validation


def _require_valid(code: StabilizerCode) -> None:
    """Raise :class:`InvalidCodeError` unless :func:`validate` passes ``code``."""
    report = validate(code)
    if not report.ok:
        raise InvalidCodeError(report)


def _check_invariants(code: StabilizerCode) -> ValidationReport:
    violations: list[Violation] = []
    gens = code.generators
    for i, g in enumerate(gens, start=1):
        if y_count(g) & 1:
            violations.append(
                Violation("square", (i,), f"generator {i} squares to -1 (odd Y count)")
            )
    # Generators i and j anticommute when x_i.z_j + z_i.x_j is odd: the
    # packed row i against row j with its x and z parts swapped.
    n = code.n
    swapped = [g.z | (g.x << n) for g in gens]
    for i, row in enumerate(code._packed):
        for j in range(i + 1, len(gens)):
            if (row & swapped[j]).bit_count() & 1:
                violations.append(
                    Violation(
                        "anticommute",
                        (i + 1, j + 1),
                        f"generators {i + 1} and {j + 1} anticommute",
                    )
                )
    if code._elim.dependent:
        r = code._elim.rank
        for idx in code._elim.dependent:
            violations.append(
                Violation(
                    "rank",
                    (idx + 1,),
                    f"generator {idx + 1} is a product of earlier ones, rank {r} < {code.a}",
                )
            )
    return ValidationReport(not violations, tuple(violations))


def _replay(code: StabilizerCode, combination: int) -> PauliOperator:
    """Sign-exact product of the generators selected by the bitmask."""
    acc = identity(code.n)
    i = 0
    while combination:
        if combination & 1:
            acc = multiply(acc, code.generators[i])
        combination >>= 1
        i += 1
    return acc


def _in_span(code: StabilizerCode, bits: int) -> bool:
    """Whether packed ``bits`` lie in the generators' GF(2) span: for a valid code
    (no -I in its group), whether the operator or its negative is a member."""
    return code._elim.solve(bits) is not None


def contains(code: StabilizerCode, p: PauliOperator) -> bool:
    """Group membership, sign included.

    Solves the GF(2) system for the bit part, then replays the generator
    product to check that the accumulated sign matches ``p.sign``.
    """
    if p.n != code.n:
        raise ValueError(f"operator acts on {p.n} qubits, code has {code.n}")
    combination = code._elim.solve(_pack(p))
    if combination is None:
        return False
    return _replay(code, combination).sign == p.sign
