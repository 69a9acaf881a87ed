"""Dense-statevector oracle for the error-correction conditions.

Builds explicit codewords as the joint +1 eigenspace of the generators and
checks the Knill-Laflamme structure <psi_i| Ea' Eb |psi_j> = C_ab delta_ij
directly.  Everything is real arithmetic: with the real Y convention each
Pauli product acts on a state vector as a signed permutation of basis
indices, never as a dense matrix.

This route is independent of the syndrome-level checks and is meant for
cross-validation at small n; the default cap keeps state vectors at or
below 2^10 entries.  numpy is imported by the functions that use it, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .pauli import PauliOperator
from .stabilizer import InvalidCodeError, StabilizerCode, validate
from .verification import ErrorSet

if TYPE_CHECKING:
    import numpy as np

DEFAULT_QUBIT_CAP = 10
_DISCARD_NORM = 1e-8


class CapExceededError(ValueError):
    """Dense-statevector work refused because the qubit count is too large."""


def _signed_permutation(p: PauliOperator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Index map and coefficients with (P v)[c] = coeff[c] * v[src[c]].

    P|b> = sign * (-1)^{popcount(b & z)} |b ^ x>, so the amplitude at c is
    pulled from b = c ^ x with the phase evaluated at b.
    """
    import numpy as np

    idx = np.arange(dim)
    src = idx ^ p.x
    parity = np.bitwise_count(src & p.z) & 1
    coeff = p.sign * np.where(parity, -1.0, 1.0)
    return src, coeff


def apply_pauli(p: PauliOperator, vec: np.ndarray) -> np.ndarray:
    """Apply an operator to a state vector (or to each row of a matrix)."""
    src, coeff = _signed_permutation(p, 1 << p.n)
    return coeff * vec[..., src]


@dataclass(frozen=True)
class Codespace:
    """Orthonormal codeword basis of a code: 2^k vectors of dimension 2^n."""

    n: int
    k: int
    basis: np.ndarray  # shape (2^k, 2^n)
    code: StabilizerCode


def codewords(code: StabilizerCode, n_cap: int = DEFAULT_QUBIT_CAP) -> Codespace:
    """Build 2^k orthonormal codewords by projecting the standard basis.

    The projector prod_i (I + M_i)/2 is applied to each standard basis
    vector in index order; surviving directions are orthonormalized by
    modified Gram-Schmidt, discarding residuals below norm 1e-8.
    """
    import numpy as np

    if code.n > n_cap:
        raise CapExceededError(
            f"kl check refused: n={code.n} exceeds the dense-statevector cap "
            f"({n_cap} qubits)"
        )
    report = validate(code)
    if not report.ok:
        raise InvalidCodeError(report)
    dim = 1 << code.n
    k = code.n - code.a
    target = 1 << k
    actions = [_signed_permutation(g, dim) for g in code.generators]
    basis: list[np.ndarray] = []
    for b in range(dim):
        v = np.zeros(dim)
        v[b] = 1.0
        for src, coeff in actions:
            v = 0.5 * (v + coeff * v[src])
        for u in basis:
            v = v - (u @ v) * u
        norm = float(np.linalg.norm(v))
        if norm > _DISCARD_NORM:
            basis.append(v / norm)
            if len(basis) == target:
                break
    if len(basis) != target:
        raise RuntimeError(
            f"projector produced {len(basis)} directions, expected 2^{k}; "
            "the generator set is inconsistent"
        )
    return Codespace(code.n, k, np.array(basis), code)


@dataclass(frozen=True)
class KLReport:
    """Error-pair Gram structure of a code.

    ``c_matrix`` holds C_ab averaged over the codeword diagonal;
    ``max_deviation`` is the largest departure from C_ab * delta_ij over
    all (a, b, i, j).  Full rank of C identifies a nondegenerate code.
    """

    c_matrix: np.ndarray
    max_deviation: float
    passed: bool
    rank: int
    full_rank: bool
    tolerance: float


def kl_check(
    code: StabilizerCode,
    errors: ErrorSet | Sequence[PauliOperator] | Iterable[PauliOperator],
    tol: float = 1e-10,
    n_cap: int = DEFAULT_QUBIT_CAP,
) -> KLReport:
    """Check the error-correction conditions for the given error set.

    Passes when every inner product <psi_i| Ea' Eb |psi_j> matches
    C_ab * delta_ij within ``tol``, with C_ab taken as the diagonal (i = j)
    average.  When the diagonal blocks are not constant the report simply
    fails with the raw deviation.
    """
    import numpy as np

    if tol <= 0:
        raise ValueError("tolerance must be positive")
    members = tuple(errors.members if isinstance(errors, ErrorSet) else errors)
    if not members:
        raise ValueError("need at least one error operator")
    for e in members:
        if e.n != code.n:
            raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    space = codewords(code, n_cap)
    w = space.basis
    dim_k = w.shape[0]
    transformed = [apply_pauli(e, w) for e in members]
    m = len(members)
    c_matrix = np.empty((m, m))
    eye = np.eye(dim_k)
    max_deviation = 0.0
    for a in range(m):
        for b in range(a, m):
            gram = transformed[a] @ transformed[b].T
            c_ab = float(np.trace(gram)) / dim_k
            c_matrix[a, b] = c_ab
            c_matrix[b, a] = c_ab
            deviation = float(np.max(np.abs(gram - c_ab * eye)))
            if deviation > max_deviation:
                max_deviation = deviation
    rank = int(np.linalg.matrix_rank(c_matrix))
    return KLReport(
        c_matrix=c_matrix,
        max_deviation=max_deviation,
        passed=max_deviation < tol,
        rank=rank,
        full_rank=rank == m,
        tolerance=tol,
    )
