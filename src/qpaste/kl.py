"""Dense-statevector oracle for the error-correction conditions.

Builds explicit codewords as the joint +1 eigenspace of the generators and
checks the Knill-Laflamme structure <psi_i| Ea' Eb |psi_j> = C_ab delta_ij
directly.  Everything is real arithmetic: with the real Y convention each
Pauli product acts on a state vector as a signed permutation of basis
indices, never as a dense matrix.

Each codeword is the projection of one basis state, so it lives on that
state's coset of the generators' X-span and no two codewords share a basis
index: the 2^k x 2^n basis W has at most one nonzero entry per column.
W is built and read as a (row, value) pair per index; the dense matrix is
never formed.

As c -> c ^ x_a maps cosets onto cosets, E_a W too is nonzero in one row
per coset, so each coset adds its restricted inner product of E_a W and
E_b W to one cell of the Gram block G_ab, and distinct cosets to distinct
cells.  ``kl_check`` lays the values of all m errors' E_a W out by coset,
drops the cosets where all of them vanish, and gets the m x m restricted
inner products of a batch of cosets from one batched ``np.matmul``; per
(a, b) it keeps only the diagonal sum and extremes and the
largest off-diagonal entry.  That is O(m^2 2^n) work in BLAS plus
O(m^2 T) elementwise over the T cosets, with no 4^k term, and batches of
at most 2^n / m cosets keep memory at O(m 2^n); the codewords cost
O((n - k) 2^n).

This route is independent of the syndrome-level checks and is meant for
cross-validation at small n; the default cap keeps state vectors at or
below 2^10 entries.  numpy is imported by the functions that use it, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .pauli import PauliOperator
from .stabilizer import StabilizerCode, _require_valid

if TYPE_CHECKING:
    import numpy as np

DEFAULT_QUBIT_CAP = 10
_DISCARD_NORM = 1e-8


class CapExceededError(ValueError):
    """Dense-statevector work refused because the qubit count is too large."""


def _signed_permutations(
    ops: Sequence[PauliOperator], index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index maps and coefficients with (P_r v)[c] = coeff[r, c] * v[src[r, c]].

    One row per operator over the basis indices ``index``, all built in one
    vectorised step; an ``index`` of shape (..., 1, s) gives arrays of shape
    (..., len(ops), s) instead.  P|b> = sign * (-1)^{popcount(b & z)} |b ^ x>,
    so the amplitude at c is pulled from b = c ^ x with the phase evaluated
    at b.
    """
    import numpy as np

    xs = np.array([p.x for p in ops], dtype=np.int64).reshape(-1, 1)
    zs = np.array([p.z for p in ops], dtype=np.int64).reshape(-1, 1)
    signs = np.array([p.sign for p in ops], dtype=float).reshape(-1, 1)
    src = index ^ xs
    coeff = np.where(np.bitwise_count(src & zs) & 1, -signs, signs)
    return src, coeff


def _sparse_codewords(
    code: StabilizerCode, n_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The codeword basis as (row, value) per index, the coset minima and the X-span.

    basis[row[c], c] == value[c] whenever row[c] < 2^k.  The projector
    prod_i (I + M_i)/2 maps |b> into the span of b's coset of the
    generators' X-span, and every other member of that coset projects to
    +/- the same vector.  So only each coset's smallest index is projected
    (all of them at once, in one vector, as their supports are disjoint),
    projections with norm below 1e-8 are discarded, and the rest,
    normalized, are the codewords in order of that index.  Disjoint supports
    make them orthogonal without Gram-Schmidt and leave at most one nonzero
    per index.  Each discarded coset gets a row of its own from 2^k up, in
    the same order, and value 0, so ``row`` numbers the cosets one to one.
    The third array lists each coset's smallest index in increasing order;
    the fourth is the X-span itself, the coset of 0, in increasing order.
    """
    import numpy as np

    if code.n > n_cap:
        raise CapExceededError(
            f"kl check refused: n={code.n} exceeds the dense-statevector cap "
            f"({n_cap} qubits)"
        )
    _require_valid(code)
    dim = 1 << code.n
    k = code.n - code.a
    target = 1 << k
    index = np.arange(dim)
    src, coeff = _signed_permutations(code.generators, index)
    # Label each index by the smallest member of its coset: the minimum over
    # c ^ span(x_1..x_j) is the smaller of two such minima over span(x_1..x_j-1).
    label = index
    for s in src:
        label = np.minimum(label, label[s])
    reps = np.flatnonzero(label == index)
    v = np.zeros(dim)
    v[reps] = 1.0
    for s, c in zip(src, coeff):
        v = 0.5 * (v + c * v[s])
    norm = np.sqrt(np.bincount(label, weights=v * v, minlength=dim))
    kept = norm[reps] > _DISCARD_NORM
    found = np.count_nonzero(kept)
    if found != target:
        raise RuntimeError(
            f"projector produced {found} directions, expected 2^{k}; "
            "the generator set is inconsistent"
        )
    position = np.zeros(dim, dtype=np.intp)
    position[np.concatenate((reps[kept], reps[~kept]))] = np.arange(len(reps))
    norm = norm[label]
    value = np.divide(v, norm, out=np.zeros(dim), where=norm > _DISCARD_NORM)
    return position[label], value, reps, np.flatnonzero(label == 0)


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
    errors: Iterable[PauliOperator],
    tol: float = 1e-10,
    n_cap: int = DEFAULT_QUBIT_CAP,
) -> KLReport:
    """Check the error-correction conditions for the given error set.

    Passes when every inner product <psi_i| Ea' Eb |psi_j> matches
    C_ab * delta_ij within ``tol``, with C_ab taken as the diagonal (i = j)
    average.  When the diagonal blocks are not constant the report simply
    fails with the raw deviation.  The cap and the code are checked before
    ``errors`` is read, so a refused check never iterates it.

    Every inner product is summed from amplitudes, coset by coset, in one
    batched matmul per chunk of cosets (see the module docstring): work is
    O(m^2 2^n), memory O(m 2^n), and no 4^k Gram block is ever formed.  On
    a passing code ``max_deviation`` is rounding noise, and its digits
    below 1e-15 depend on the order of summation.
    """
    import numpy as np

    if not tol > 0:
        raise ValueError("tolerance must be positive")
    row, value, reps, span = _sparse_codewords(code, n_cap)
    members = tuple(errors)
    if not members:
        raise ValueError("need at least one error operator")
    for e in members:
        if e.n != code.n:
            raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    dim_k = 1 << (code.n - code.a)
    dim = len(row)
    m = len(members)
    # Coset t of the X-span is reps[t] ^ span.  E_a W is nonzero on coset t
    # only in row images[t, a], the row of the coset that x_a maps t onto.
    xs = np.array([e.x for e in members], dtype=np.int64)
    images = row[reps.reshape(-1, 1) ^ xs]
    live = (images < dim_k).any(axis=1)
    reps, images = reps[live], images[live]
    src, coeff = _signed_permutations(members, (reps.reshape(-1, 1) ^ span)[:, None, :])
    amps = value[src]  # amps[t, a]: E_a W's values on coset t
    amps *= coeff
    del src, coeff
    # Distinct cosets have distinct images under each error, so coset t
    # alone fills cell (images[t, a], images[t, b]) of G_ab, with its inner
    # product gram[t, a, b].  A row of 2^k or more is a discarded coset's:
    # its cells hold 0 and count as off the diagonal.
    # Chunks of at most 2^n / m cosets keep each gram within m * 2^n entries
    # (m^2, the size of C itself, when there are more errors than indices).
    chunk = max(1, dim // m)
    total = np.zeros((m, m))
    high = np.full((m, m), -np.inf)
    low = np.full((m, m), np.inf)
    off = np.zeros((m, m))
    for t0 in range(0, len(reps), chunk):
        block = amps[t0 : t0 + chunk]
        gram = np.matmul(block, block.transpose(0, 2, 1))
        cell = images[t0 : t0 + chunk]
        diagonal = (cell[:, :, None] == cell[:, None, :]) & (cell < dim_k)[:, :, None]
        on = np.where(diagonal, gram, 0.0)
        total += on.sum(axis=0)
        np.maximum(high, np.where(diagonal, gram, -np.inf).max(axis=0), out=high)
        np.minimum(low, np.where(diagonal, gram, np.inf).min(axis=0), out=low)
        np.maximum(off, np.abs(gram - on).max(axis=0), out=off)
    c_matrix = total / dim_k
    # A diagonal cell that no coset reaches holds 0, |C_ab| away from C_ab.
    # No term is needed for it: a pair of Pauli errors reaches either all
    # 2^k diagonal cells or none of them, and in the second case C_ab = 0.
    max_deviation = float(max((high - c_matrix).max(), (c_matrix - low).max(), off.max()))
    rank = int(np.linalg.matrix_rank(c_matrix))
    return KLReport(
        c_matrix=c_matrix,
        max_deviation=max_deviation,
        passed=max_deviation < tol,
        rank=rank,
        full_rank=rank == m,
        tolerance=tol,
    )
