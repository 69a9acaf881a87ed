"""Pauli products on n qubits in the symplectic bit representation.

An operator is ``sign * prod_i X_i^{x_i} Z_i^{z_i}`` with ``sign`` in
{+1, -1}.  Two bits encode the factor on each qubit: (0,0) is I, (1,0) is
X, (0,1) is Z and (1,1) is Y, where Y is the real matrix [[0,-1],[1,0]],
i.e. Y = X.Z.  Every product of these real matrices is again real, so a
single sign bit is exact and no complex phase is ever tracked.

``x`` and ``z`` are Python ints used as bitsets; bit i is qubit i+1, and
the leftmost character of the text form ("XXZIZ") is qubit 1.
"""

from __future__ import annotations

from typing import NamedTuple

_FACTOR_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_SIGN_CHARS = {"+": 1, "-": -1, "−": -1}
# Binary digits of each factor letter for int(..., 2).  Every other byte, the
# UTF-8 bytes of non-ASCII characters included, maps to "2", which int()
# refuses: nothing else may pass as whitespace, an underscore or a sign.
_OTHER_BYTES = bytes(b for b in range(256) if b not in b"IXYZ")
_X_DIGITS = bytes.maketrans(b"IXYZ" + _OTHER_BYTES, b"0110" + b"2" * len(_OTHER_BYTES))
_Z_DIGITS = bytes.maketrans(b"IXYZ" + _OTHER_BYTES, b"0011" + b"2" * len(_OTHER_BYTES))
# Base-4 digit x + 2z of one qubit, see format_pauli.
_DIGIT_FACTORS = str.maketrans("0123", "IXZY")


class PauliParseError(ValueError):
    """Raised when a Pauli string cannot be parsed."""


class _PauliFields(NamedTuple):
    n: int
    x: int
    z: int
    sign: int = 1


class PauliOperator(_PauliFields):
    """Immutable n-qubit Pauli product, the named tuple (n, x, z, sign)."""

    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int, sign: int = 1):
        self = tuple.__new__(cls, (n, x, z, sign))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its result too.
        return cls(*iterable)

    def __post_init__(self):
        """Check the fields; every construction calls it."""
        n, x, z, sign = self
        if n < 1:
            raise ValueError("a Pauli operator needs at least one qubit")
        limit = 1 << n
        if not (0 <= x < limit and 0 <= z < limit):
            raise ValueError(f"bit vectors do not fit {n} qubits")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliOperator:
    """The identity operator on n qubits."""
    return PauliOperator(n, 0, 0, 1)


def parse_pauli(text: str) -> PauliOperator:
    """Parse a Pauli string such as "XXZIZ" or "-Y".

    An optional leading "+" or "-" sets the sign; the remaining characters
    must all be in {I, X, Y, Z}, leftmost character acting on qubit 1.
    """
    n, row, sign = _parse_row(text)
    return PauliOperator(n, row & ((1 << n) - 1), row >> n, sign)


def _parse_row(text: str) -> tuple[int, int, int]:
    """(n, x | z << n, sign) of a Pauli string, read as :func:`parse_pauli` reads it."""
    sign = 1
    body = text
    if body[:1] in _SIGN_CHARS:
        sign = _SIGN_CHARS[body[0]]
        body = body[1:]
    if not body:
        raise PauliParseError("empty Pauli string")
    # Reversed, the text reads most significant qubit first, as int() wants:
    # its Z digits and then its X digits are the packed row's 2n bits.
    # A lone surrogate encodes too, so that it reaches the diagnostic below.
    reverse = body.encode("utf-8", "surrogatepass")[::-1]
    try:
        row = int(reverse.translate(_Z_DIGITS) + reverse.translate(_X_DIGITS), 2)
    except ValueError:
        i, ch = next((i, ch) for i, ch in enumerate(body, 1) if ch not in _FACTOR_BITS)
        raise PauliParseError(f"invalid character {ch!r} at position {i}") from None
    return len(body), row, sign


def format_pauli(p: PauliOperator) -> str:
    """Render an operator as text; the sign is printed only when -1."""
    body = _format_row(p.n, p.x | p.z << p.n)
    return body if p.sign > 0 else "-" + body


def _format_row(n: int, row: int) -> str:
    """Unsigned text of the packed row x | z << n, as :func:`format_pauli` writes it."""
    # Read as hex, the binary text of x puts bit i in hex digit i, so
    # x + 2z has the digit x_i + 2 z_i (0..3, no carry) at qubit i.
    width = f"0{n}b"
    digits = int(format(row & ((1 << n) - 1), width), 16) + 2 * int(format(row >> n, width), 16)
    return format(digits, f"0{n}x")[::-1].translate(_DIGIT_FACTORS)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Operator product p.q.

    Bit vectors XOR; the sign picks up -1 for every qubit where a Z-type
    factor of p passes an X-type factor of q (Z.X = -X.Z in the real
    convention), i.e. (-1) ** popcount(p.z & q.x).
    """
    if p.n != q.n:
        raise ValueError(f"operator lengths differ: {p.n} != {q.n}")
    flips = (p.z & q.x).bit_count() & 1
    sign = p.sign * q.sign * (-1 if flips else 1)
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, sign)

