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

from dataclasses import dataclass

_FACTOR_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_FACTOR = {bits: ch for ch, bits in _FACTOR_BITS.items()}
_SIGN_CHARS = {"+": 1, "-": -1, "−": -1}
_X_DIGITS = bytes.maketrans(b"IXYZ", b"0110")
_Z_DIGITS = bytes.maketrans(b"IXYZ", b"0011")
# Base-4 digit x + 2z of one qubit, see format_pauli.
_DIGIT_FACTORS = str.maketrans("0123", "IXZY")


class PauliParseError(ValueError):
    """Raised when a Pauli string cannot be parsed."""


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli product."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a Pauli operator needs at least one qubit")
        limit = 1 << self.n
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError(f"bit vectors do not fit {self.n} qubits")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    def factor(self, qubit: int) -> str:
        """Single-qubit factor letter at 1-based position ``qubit``."""
        i = qubit - 1
        return _BITS_FACTOR[((self.x >> i) & 1, (self.z >> i) & 1)]

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
    sign = 1
    body = text
    if body[:1] in _SIGN_CHARS:
        sign = _SIGN_CHARS[body[0]]
        body = body[1:]
    if not body:
        raise PauliParseError("empty Pauli string")
    # Only ASCII bodies encode to one byte per character; translate then drops
    # the factor letters, so any byte left over is an invalid character.
    if not body.isascii() or (raw := body.encode()).translate(None, b"IXYZ"):
        i, ch = next((i, ch) for i, ch in enumerate(body, 1) if ch not in _FACTOR_BITS)
        raise PauliParseError(f"invalid character {ch!r} at position {i}")
    # Reversed, the text reads most significant qubit first, as int() wants.
    reverse = raw[::-1]
    x = int(reverse.translate(_X_DIGITS), 2)
    z = int(reverse.translate(_Z_DIGITS), 2)
    return PauliOperator(len(body), x, z, sign)


def format_pauli(p: PauliOperator) -> str:
    """Render an operator as text; the sign is printed only when -1."""
    # Read as hex, the binary text of x puts bit i in hex digit i, so
    # x + 2z has the digit x_i + 2 z_i (0..3, no carry) at qubit i.
    width = f"0{p.n}b"
    digits = int(format(p.x, width), 16) + 2 * int(format(p.z, width), 16)
    body = format(digits, f"0{p.n}x")[::-1].translate(_DIGIT_FACTORS)
    return body if p.sign > 0 else "-" + body


def _check_same_n(p: PauliOperator, q: PauliOperator) -> None:
    if p.n != q.n:
        raise ValueError(f"operator lengths differ: {p.n} != {q.n}")


def commutes(p: PauliOperator, q: PauliOperator) -> int:
    """Symplectic inner product: 0 when p and q commute, 1 when they anticommute.

    Signs are irrelevant; the result is symmetric in the arguments.
    """
    _check_same_n(p, q)
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) & 1


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Operator product p.q.

    Bit vectors XOR; the sign picks up -1 for every qubit where a Z-type
    factor of p passes an X-type factor of q (Z.X = -X.Z in the real
    convention), i.e. (-1) ** popcount(p.z & q.x).
    """
    _check_same_n(p, q)
    flips = (p.z & q.x).bit_count() & 1
    sign = p.sign * q.sign * (-1 if flips else 1)
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, sign)


def y_count(p: PauliOperator) -> int:
    """Number of qubits carrying a Y factor."""
    return (p.x & p.z).bit_count()


def square_sign(p: PauliOperator) -> int:
    """Sign of p.p: -1 exactly when the Y count is odd."""
    return -1 if y_count(p) & 1 else 1


def adjoint(p: PauliOperator) -> PauliOperator:
    """Conjugate transpose; equals p up to the square sign."""
    return PauliOperator(p.n, p.x, p.z, p.sign * square_sign(p))


def weight(p: PauliOperator) -> int:
    """Number of qubits on which p acts non-trivially."""
    return (p.x | p.z).bit_count()


def tensor(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Concatenate two operators on disjoint qubits, p first."""
    return PauliOperator(
        p.n + q.n,
        p.x | (q.x << p.n),
        p.z | (q.z << p.n),
        p.sign * q.sign,
    )
