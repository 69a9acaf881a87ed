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
from .pauli import PauliOperator, parse_pauli
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

# One primitive polynomial per degree, coefficients as a bitmask including
# the leading term (e.g. degree 4: x^4 + x + 1 -> 0b10011).  Fixed so the
# constructed codes are identical across runs and platforms.
_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


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
    return _checked(StabilizerCode([parse_pauli(r) for r in rows]), n, a, name)


def _mixer_columns(m: int, mixer: Sequence[int] | None) -> list[int]:
    """L's m columns: column c is the image of the label with only bit c set.

    They are the images of 1, x, ..., x^(m-1) under multiplication by x
    modulo the fixed polynomial, or the columns of explicit matrix rows,
    whose bits at and above m are ignored.
    """
    if mixer is None:
        poly = _PRIMITIVE_POLY.get(m)
        if poly is None:
            raise ValueError(f"no default mixing polynomial for degree {m}")
        # x * x^(m-1) = x^m, which the polynomial reduces to its lower terms.
        return [1 << (c + 1) for c in range(m - 1)] + [poly ^ (1 << m)]
    rows = list(mixer)
    if len(rows) != m:
        raise ValueError(f"mixer needs {m} rows, got {len(rows)}")
    return [sum(((row >> c) & 1) << r for r, row in enumerate(rows)) for c in range(m)]


def hamming_class(m: int, mixer: Sequence[int] | None = None) -> StabilizerCode:
    """The n = 2^m code with m + 2 generators (k = n - m - 2), m >= 3.

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

    The default L is multiplication by x modulo a fixed primitive
    polynomial of degree m; pass ``mixer`` (m row bitmasks) to use another
    matrix.  For m = 3 with the default mixer the builtin 8-qubit code is
    returned so the pasted 13-qubit reproduction stays anchored to it.
    Default-mixer members are memoised; custom-mixer ones are built anew.
    """
    if m < 3:
        raise ValueError(f"m={m} rejected: k = n - m - 2 would not be positive")
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
    gens = [PauliOperator(n, ones, 0, 1), PauliOperator(n, 0, ones, 1)]
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
        gens.append(PauliOperator(n, x_bits, z_bits, 1))
    return _checked(StabilizerCode(gens), n, m + 2, f"hamming_class({m})")


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
