"""Stabilizer groups given by generator lists.

A code is an ordered list of commuting, independent, square-to-+1 Pauli
products, all with sign +1.  Generators are kept in the given order and
never silently re-echeloned: the syndrome bit order is the generator
order.  A canonical (row-reduced) basis is available separately for
group-level comparisons.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from operator import xor
from typing import Iterable, Sequence

from . import gf2
from .pauli import PauliOperator, commutes, identity, multiply, y_count

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


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Columns of a bit matrix: bit j of column i is bit i of ``rows[j]``.

    A row's binary text, read as a big-endian int, holds ASCII "0" or "1"
    in byte i for bit i; less the same int for "00...0" it holds 0 or 1.
    Eight such rows shifted by 0..7 add without carries into one int
    whose byte i holds column i's bits for those rows.  The bytes of
    eight such groups fill column i's 64-bit lane in the host's byte
    order, so one native cast reads every column of 64 rows as an int.
    """
    zeros = int.from_bytes(b"0" * width, "big")
    columns = [0] * width
    for start in range(0, len(rows), 64):
        lanes = bytearray(8 * width)
        for byte, first in enumerate(range(start, min(start + 64, len(rows)), 8)):
            acc = 0
            for j, row in enumerate(rows[first : first + 8]):
                acc |= (int.from_bytes(format(row, f"0{width}b").encode(), "big") - zeros) << j
            lanes[byte if _LITTLE_ENDIAN else 7 - byte :: 8] = acc.to_bytes(width, "little")
        block = memoryview(lanes).cast("Q").tolist()
        columns = block if not start else [c | (b << start) for c, b in zip(columns, block)]
    return columns


def _check_rows(rows: Sequence[PauliOperator], n: int | None, noun: str) -> int:
    """Qubit count of ``rows`` (``n``, else the first row's), checking that every
    row acts on it with sign +1; ``noun`` names a row in the error messages."""
    if n is None:
        if not rows:
            raise ValueError(f"qubit count required for an empty {noun} list")
        n = rows[0].n
    for i, row in enumerate(rows, start=1):
        if row.n != n:
            raise ValueError(f"{noun} {i} acts on {row.n} qubits, expected {n}")
        if row.sign != 1:
            raise ValueError(f"{noun} {i} must have sign +1")
    return n


class StabilizerCode:
    """Ordered generator list over a fixed qubit count.

    Construction checks only shape (equal lengths, +1 signs); the group
    invariants are checked by :func:`validate` so that broken inputs can be
    reported rather than refused.  Instances are immutable; the GF(2)
    elimination cache used for membership tests is built eagerly, the
    validation report and the syndrome table on first use.
    """

    def __init__(self, generators: Iterable[PauliOperator], n: int | None = None):
        gens = tuple(generators)
        self.n = _check_rows(gens, n, "generator")
        self.generators = gens
        self._elim = gf2.Eliminator(2 * self.n, [_pack(g) for g in gens])

    @property
    def a(self) -> int:
        return len(self.generators)

    @cached_property
    def _syndrome_keys(self) -> list[int]:
        """Syndrome key of each weight-<=1 error, in ``enumerate_errors(n, 1)``
        order: 0 for the identity, then X, Y, Z on each qubit in turn.

        Generator j is bit j, the bit order of :meth:`Syndrome.as_int`.  X on
        qubit i anticommutes with the generators whose z part has bit i, Z
        with those whose x part has it, and Y = X.Z with exactly one of the
        two, so the keys are the transposed generator matrix.
        """
        n = self.n
        columns = _transpose([_pack(g) for g in self.generators], 2 * n)
        x_part, z_part = columns[:n], columns[n:]
        keys = [0] * (3 * n + 1)
        keys[1::3] = z_part
        keys[2::3] = map(xor, x_part, z_part)
        keys[3::3] = x_part
        return keys

    @cached_property
    def syndrome_table(self) -> tuple[tuple[int, int, int], ...]:
        """Weight-1 syndromes ``(s_X, s_Y, s_Z)`` of each qubit, as ints with
        generator j at bit j."""
        keys = self._syndrome_keys
        return tuple([tuple(keys[i : i + 3]) for i in range(1, len(keys), 3)])

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


@dataclass(frozen=True)
class Violation:
    """One failed generator-set invariant; indices are 1-based."""

    kind: str  # "anticommute" | "square" | "rank"
    rows: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.rows}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class CodeParameters:
    """n physical qubits, a generators, k = n - a encoded qubits.

    ``t`` is the verified correctable weight; it stays None until a
    distance check has been run.
    """

    n: int
    a: int
    k: int
    t: int | None = None


@dataclass(frozen=True)
class Syndrome:
    """Commutation bit per generator, in generator order."""

    bits: tuple[int, ...]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __xor__(self, other: "Syndrome") -> "Syndrome":
        if len(self.bits) != len(other.bits):
            raise ValueError("syndrome lengths differ")
        return Syndrome(tuple([a ^ b for a, b in zip(self.bits, other.bits)]))

    def as_int(self) -> int:
        """Bits packed into an int, generator i at bit i."""
        out = 0
        for i, b in enumerate(self.bits):
            out |= b << i
        return out

    @property
    def is_zero(self) -> bool:
        return not any(self.bits)


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
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if commutes(gens[i], gens[j]):
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


def syndrome(code: StabilizerCode, error: PauliOperator) -> Syndrome:
    """Commutation vector of ``error`` against each generator.

    Linear under operator products: syndrome(E.F) = syndrome(E) XOR
    syndrome(F).  The identity error maps to all-zero.
    """
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return Syndrome(tuple([commutes(g, error) for g in code.generators]))


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


def parameters(code: StabilizerCode) -> CodeParameters:
    """Code parameters; requires a valid code."""
    _require_valid(code)
    return CodeParameters(code.n, code.a, code.n - code.a)


def canonical_generators(code: StabilizerCode) -> tuple[PauliOperator, ...]:
    """Row-reduced generator basis with signs replayed from the originals.

    Canonical for the generated group, so two codes generate the same
    group exactly when their canonical generators coincide.
    """
    pairs = gf2.rref([_pack(g) for g in code.generators], 2 * code.n)
    out = []
    for _, combination in pairs:
        out.append(_replay(code, combination))
    return tuple(out)


def group_equal(first: StabilizerCode, second: StabilizerCode) -> bool:
    """Whether two generator lists generate the same signed group."""
    if first.n != second.n:
        return False
    return canonical_generators(first) == canonical_generators(second)
