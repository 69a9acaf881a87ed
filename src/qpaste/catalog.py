"""Built-in codes and the two constructed one-error families.

The three built-ins are the classic 5-qubit perfect code, the 8-qubit
code encoding three qubits, and the 13-qubit code obtained by pasting the
5-qubit code onto the augmented 8-qubit one.  The 13-qubit generator list
here is the golden reference the pasting operation must reproduce
bit-exactly, row order included.

Every catalog or constructed code is checked at build time (validation,
weight-1 syndrome distinctness, expected parameters) and construction
fails loudly if anything is off; for a pasted code, validation and the
syndrome check are the ones ``paste`` runs on its output, not repeated
here.  Built codes are memoised with ``functools.cache``, so equal
arguments return the same object.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from . import gf2
from .pauli import _parse_row
from .stabilizer import StabilizerCode
from .pasting import _prove_one_error, paste
from .verification import perfect_length

_CODE5_ROWS = (
    "XXZIZ",
    "ZXXZI",
    "IZXXZ",
    "ZIZXX",
)

_CODE8_ROWS = (
    "XXXXXXXX",
    "ZZZZZZZZ",
    "XIXIZYZY",
    "XIYZXIYZ",
    "XZIYIYXZ",
)

_CODE13_ROWS = (
    "XXXXXXXXIIIII",
    "ZZZZZZZZIIIII",
    "XIXIZYZYXXZIZ",
    "XIYZXIYZZXXZI",
    "XZIYIYXZIZXXZ",
    "IIIIIIIIZIZXX",
)

# name: (rows, expected (n, a)), in catalog order.
_BUILTINS = {
    "code5": (_CODE5_ROWS, (5, 4)),
    "code8": (_CODE8_ROWS, (8, 5)),
    "code13": (_CODE13_ROWS, (13, 6)),
}

_MAX_DEGREE = 20  # n = 2^20 qubits; perfect(10), n = 1,398,101, is the last perfect code


def _shaped(code: StabilizerCode, n: int, a: int, context: str) -> StabilizerCode:
    """Bail out unless a catalog code has the expected (n, a)."""
    if code.n != n or code.a != a:
        raise RuntimeError(
            f"{context}: got (n={code.n}, a={code.a}), expected (n={n}, a={a})"
        )
    return code


def _checked(code: StabilizerCode, n: int, a: int, context: str) -> StabilizerCode:
    """Bail out if a catalog code fails its own correctness conditions."""
    return _prove_one_error(_shaped(code, n, a, context), RuntimeError, context)


def builtin(name: str) -> StabilizerCode:
    """One of the shipped codes: "code5", "code8" or "code13"."""
    # functools.cache keys on the call's form, so builtin(name="code5") and
    # builtin("code5") meet on one entry only through a positional call.
    return _builtin(name)


@cache
def _builtin(name: str) -> StabilizerCode:
    if name not in _BUILTINS:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown catalog code {name!r} (known: {known})")
    rows, (n, a) = _BUILTINS[name]
    code = StabilizerCode((), len(rows[0]), _rows=[_parse_row(r)[1] for r in rows])
    return _checked(code, n, a, name)


def _smallest_primitive_poly(m: int) -> int:
    """The smallest primitive polynomial of degree m as a bitmask (x^4 + x + 1 -> 0b10011):
    the first odd one modulo which x, a unit, returns to 1 after 2^m - 1 powers."""
    poly, order = (1 << m) - 1, 0
    while order != (1 << m) - 1:
        poly, power, order = poly + 2, 2, 1
        while power != 1:
            power <<= 1
            if power >> m:
                power ^= poly
            order += 1
    return poly


def _mixer_columns(m: int, mixer: Sequence[int] | None) -> list[int]:
    """L's m columns: column c is the image of the label with only bit c set.

    They are the images of 1, x, ..., x^(m-1) under multiplication by x
    modulo the default polynomial, or the columns of explicit matrix rows,
    whose bits at and above m are ignored.
    """
    if mixer is None:
        # x * x^(m-1) = x^m, which the polynomial reduces to its lower terms.
        return [1 << (c + 1) for c in range(m - 1)] + [_smallest_primitive_poly(m) ^ (1 << m)]
    rows = list(mixer)
    if len(rows) != m:
        raise ValueError(f"mixer needs {m} rows, got {len(rows)}")
    return [sum(((row >> c) & 1) << r for r, row in enumerate(rows)) for c in range(m)]


def hamming_class(m: int, mixer: Sequence[int] | None = None) -> StabilizerCode:
    """The n = 2^m code with m + 2 generators (k = n - m - 2), 3 <= m <= 20.

    Qubits are labeled by the m-bit vectors v in integer order.  Rows 1
    and 2 are the all-X and all-Z products; row 2+r puts a z bit where
    v_r = 1 and an x bit where (L v)_r = 1, with L an invertible m x m
    GF(2) matrix such that L + I is also invertible.  Then the weight-1
    syndromes are 01|v, 10|Lv and 11|(L+I)v for X, Z and Y errors on
    qubit v, all distinct because v, Lv and (L+I)v are bijections.

    The rows are built from L's m columns by linearity: the z part of row
    2+r repeats a block of 2^r clear and 2^r set bits, and since (L v)_r
    is the sum of v_c over the columns c with L[r][c] = 1, its x part is
    the XOR of the z parts of rows 2+c for those c.

    The default L is multiplication by x modulo the smallest primitive
    polynomial of degree m; pass ``mixer`` (m row bitmasks) to use another
    matrix.  For m = 3 with the default mixer the builtin 8-qubit code is
    returned so the pasted 13-qubit reproduction stays anchored to it.
    Default-mixer members are memoised; custom-mixer ones are built anew.
    """
    if m < 3:
        raise ValueError(f"m={m} rejected: k = n - m - 2 would not be positive")
    if m > _MAX_DEGREE:
        raise ValueError(f"m={m} rejected: the n = 2^m family stops at m={_MAX_DEGREE}")
    if mixer is None:
        return _default_hamming_class(m)
    return _build_hamming_class(m, _mixer_columns(m, mixer))


@cache
def _default_hamming_class(m: int) -> StabilizerCode:
    if m == 3:
        return builtin("code8")
    return _build_hamming_class(m, _mixer_columns(m, None))


def _build_hamming_class(m: int, columns: list[int]) -> StabilizerCode:
    successor = [column ^ (1 << c) for c, column in enumerate(columns)]  # L + I
    if gf2.Eliminator(m, columns).rank != m or gf2.Eliminator(m, successor).rank != m:
        raise ValueError(
            "mixer rejected: the matrix and its successor (L and L+I) must "
            "both be invertible"
        )
    n = 1 << m
    ones = (1 << n) - 1
    rows = [ones, ones << n]
    z_rows = []
    for r in range(m):
        half = 1 << r
        row, width = ((1 << half) - 1) << half, 2 * half  # bit v set where v_r = 1, for v < width
        while width < n:
            row |= row << width
            width *= 2
        z_rows.append(row)
    for r, z_bits in enumerate(z_rows):
        x_bits = 0
        for column, z_row in zip(columns, z_rows):
            if column >> r & 1:
                x_bits ^= z_row
        rows.append(x_bits | z_bits << n)
    return _checked(StabilizerCode((), n, _rows=rows), n, m + 2, f"hamming_class({m})")


def perfect(j: int, j_max: int = 4) -> StabilizerCode:
    """The j-th perfect one-error code: n = (4^(j+1)-1)/3 with 2j+2 generators.

    perfect(1) is the 5-qubit code; each later one pastes the previous
    perfect code onto the 2^(2j)-qubit member of the constructed family
    (generator counts align with no padding).  ``j_max`` is a range check
    only; the default keeps n at or below 341.
    """
    if j < 1:
        raise ValueError("perfect codes are indexed from 1")
    if j > j_max:
        raise ValueError(f"j={j} exceeds the configured maximum {j_max}")
    return _perfect(j)


@cache
def _perfect(j: int) -> StabilizerCode:
    if j == 1:
        code = builtin("code5")
    else:
        code = paste(hamming_class(2 * j), _perfect(j - 1))
    # paste has validated and syndrome-checked the code; builtin checked code5.
    # This (n, a) saturates the bound for every j (see perfect_length).
    return _shaped(code, perfect_length(j), 2 * j + 2, f"perfect({j})")
