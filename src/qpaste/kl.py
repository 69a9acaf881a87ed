"""Dense-statevector oracle for the error-correction conditions.

Builds explicit codewords as the joint +1 eigenspace of the generators and
checks the Knill-Laflamme structure <psi_i| Ea' Eb |psi_j> = C_ab delta_ij
directly.  Everything is real arithmetic: with the real Y convention each
Pauli product acts on a state vector as a signed permutation of basis
indices, never as a dense matrix.

Each codeword is the projection of one basis state, so it lives on that
state's coset of the generators' X-span and no two codewords share a basis
index: the 2^k x 2^n basis W has at most one nonzero entry per column.
W is built as a (row, value) pair per index; ``kl_check`` reads that pair
directly, and only ``codewords`` scatters it into a dense matrix.
``kl_check`` applies all m errors to the pair in one step, and for each
error a sums the Gram blocks G_ab, b >= a, with one bincount over
(b, i, j) bins; a code with n - k generators fits 2^(n-k) values of b in
one bincount, so no bincount has more than 2^(n+k) bins.  The blocks cost
O(m^2 (2^n + 4^k)) in all, in m Python iterations when 2^(n-k) >= m; the
codewords cost O((n - k) 2^n).

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


def _signed_permutations(
    ops: Sequence[PauliOperator], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index maps and coefficients with (P_r v)[c] = coeff[r, c] * v[src[r, c]].

    One row per operator, all built in one vectorised step.
    P|b> = sign * (-1)^{popcount(b & z)} |b ^ x>, so the amplitude at c is
    pulled from b = c ^ x with the phase evaluated at b.
    """
    import numpy as np

    xs = np.array([p.x for p in ops], dtype=np.int64).reshape(-1, 1)
    zs = np.array([p.z for p in ops], dtype=np.int64).reshape(-1, 1)
    signs = np.array([p.sign for p in ops], dtype=float).reshape(-1, 1)
    src = np.arange(dim) ^ xs
    coeff = np.where(np.bitwise_count(src & zs) & 1, -signs, signs)
    return src, coeff


def apply_pauli(p: PauliOperator, vec: np.ndarray) -> np.ndarray:
    """Apply an operator to a state vector (or to each row of a matrix)."""
    src, coeff = _signed_permutations([p], 1 << p.n)
    return coeff[0] * vec[..., src[0]]


@dataclass(frozen=True)
class Codespace:
    """Orthonormal codeword basis of a code: 2^k vectors of dimension 2^n."""

    n: int
    k: int
    basis: np.ndarray  # shape (2^k, 2^n)
    code: StabilizerCode


def _sparse_codewords(code: StabilizerCode, n_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The codeword basis as (row, value) per index: basis[row[c], c] == value[c].

    The projector prod_i (I + M_i)/2 maps |b> into the span of b's coset of
    the generators' X-span, and every other member of that coset projects
    to +/- the same vector.  So only each coset's smallest index is
    projected (all of them at once, in one vector, as their supports are
    disjoint), projections with norm below 1e-8 are discarded, and the
    rest, normalized, are the codewords in order of that index.  Disjoint
    supports make them orthogonal without Gram-Schmidt and leave at most
    one nonzero per index; indices of discarded cosets read row 0, value 0.
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
    src, coeff = _signed_permutations(code.generators, dim)
    # Label each index by the smallest member of its coset: the minimum over
    # c ^ span(x_1..x_j) is the smaller of two such minima over span(x_1..x_j-1).
    label = np.arange(dim)
    for s in src:
        label = np.minimum(label, label[s])
    reps = np.flatnonzero(label == np.arange(dim))
    v = np.zeros(dim)
    v[reps] = 1.0
    for s, c in zip(src, coeff):
        v = 0.5 * (v + c * v[s])
    norm = np.sqrt(np.bincount(label, weights=v * v, minlength=dim))
    kept = reps[norm[reps] > _DISCARD_NORM]
    if len(kept) != target:
        raise RuntimeError(
            f"projector produced {len(kept)} directions, expected 2^{k}; "
            "the generator set is inconsistent"
        )
    position = np.zeros(dim, dtype=np.intp)
    position[kept] = np.arange(target)
    norm = norm[label]
    value = np.divide(v, norm, out=np.zeros(dim), where=norm > _DISCARD_NORM)
    return position[label], value


def codewords(code: StabilizerCode, n_cap: int = DEFAULT_QUBIT_CAP) -> Codespace:
    """Build 2^k orthonormal codewords by projecting the standard basis.

    The dense 2^k x 2^n ``basis`` is built here only; ``kl_check`` reads the
    (row, value) form that ``_sparse_codewords`` builds and this scatters.
    """
    import numpy as np

    row, value = _sparse_codewords(code, n_cap)
    k = code.n - code.a
    basis = np.zeros((1 << k, len(row)))
    basis[row, np.arange(len(row))] = value
    return Codespace(code.n, k, basis, code)


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
    fails with the raw deviation.  The cap and the code are checked before
    ``errors`` is read, so a refused check never iterates it.
    """
    import numpy as np

    if tol <= 0:
        raise ValueError("tolerance must be positive")
    row, value = _sparse_codewords(code, n_cap)
    members = tuple(errors.members if isinstance(errors, ErrorSet) else errors)
    if not members:
        raise ValueError("need at least one error operator")
    for e in members:
        if e.n != code.n:
            raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    dim_k = 1 << (code.n - code.a)
    dim = len(row)
    src, coeff = _signed_permutations(members, dim)
    # E_a W has one nonzero per column too: codeword rows[a, c], value vals[a, c].
    rows = row[src]
    vals = coeff * value[src]
    m = len(members)
    c_matrix = np.empty((m, m))
    max_deviation = 0.0
    cells = dim_k * dim_k
    # Blocks G_ab for up to `chunk` values of b per bincount, so that no
    # bincount has more bins than a dense basis would have entries (2^k * 2^n).
    # Bin of (b, i, j) is (b - b0) * cells + i * 2^k + j.
    chunk = min(m, dim // dim_k)
    left = rows * dim_k
    right = rows + np.arange(m).reshape(-1, 1) * cells
    # Reused, as fresh temporaries of this size cost page faults every time.
    keys = np.empty((chunk, dim), dtype=right.dtype)
    weights = np.empty((chunk, dim))
    for a in range(m):
        for b0 in range(a, m, chunk):
            nb = min(chunk, m - b0)
            np.add(left[a] - b0 * cells, right[b0 : b0 + nb], out=keys[:nb])
            np.multiply(vals[a], vals[b0 : b0 + nb], out=weights[:nb])
            blocks = np.bincount(keys[:nb].ravel(), weights[:nb].ravel(), nb * cells)
            blocks = blocks.reshape(nb, cells)
            diagonal = blocks[:, :: dim_k + 1]
            c_ab = diagonal.sum(axis=1) / dim_k
            c_matrix[a, b0 : b0 + nb] = c_ab
            c_matrix[b0 : b0 + nb, a] = c_ab
            diagonal -= c_ab.reshape(-1, 1)
            deviation = float(np.abs(blocks, out=blocks).max())
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
