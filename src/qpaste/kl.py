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
cells.  Whether that cell is on the diagonal depends on the pair alone:
x_a and x_b map every coset onto the same coset when x_a ^ x_b lies in the
X-span, and none otherwise.  ``kl_check`` reads the errors' x bits, z
bits and signs into three arrays once per call, then streams the cosets in
batches of one size: as many cosets as keep both their amplitudes, m |span|
entries each, and their Gram products, m^2 each, within one chunk (one
coset, when it alone needs more).  Per batch it takes every error's source
index and sign at every coset minimum from one XOR and one popcount,
builds the values of all m errors' E_a W, drops the cosets where all of
them vanish, and gets the m x m restricted inner products of the rest from
one batched ``np.matmul``.  It reads each batch with one sum, which is the
diagonal sum of the same-image pairs as their other cells hold exactly 0;
the diagonal extremes of those pairs alone, gathered out of the batch; and
one in-place |.| max for the largest entry off the diagonal, kept for the
other pairs.  That is O(m^2 2^n) work in BLAS plus O(m^2 T) elementwise
over the T cosets, with no 4^k term.  The rank of the symmetric m x m
matrix C comes from one eigenvalue solve.  Memory is O(chunk) for one
batch's amplitudes and products plus O(2^n) for the codewords' row and
value arrays, which cost O((n - k) 2^n) to build, as many generators at a
time as fit one chunk.

This route is independent of the syndrome-level checks and is meant for
cross-validation at small n; by default it refuses state vectors of more
than 2^16 amplitudes (n > 16).  numpy is imported by the functions that
use it, so importing the package does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .pauli import PauliOperator
from .stabilizer import StabilizerCode, _require_valid

if TYPE_CHECKING:
    import numpy as np

# The longest state vector kl_check builds unless told otherwise: 2^16
# amplitudes admit code13 and hamming_class(4), not perfect(2).
DEFAULT_MAX_AMPLITUDES = 1 << 16
# Entries per chunk of amplitudes or Gram products.  Every n <= 10 code
# builds its weight-<=1 amplitudes, at most 31 * 2^10 entries, in one chunk.
_CHUNK = 1 << 16
_DISCARD_NORM = 1e-8
# A check passes when every inner product is this close to C_ab * delta_ij.
_TOLERANCE = 1e-10


class CapExceededError(ValueError):
    """Dense-statevector work refused because a state vector would be too long."""


def _columns(ops: Sequence[PauliOperator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each operator's x bits, z bits and sign as three arrays."""
    import numpy as np

    xs = np.array([p.x for p in ops], dtype=np.int64)
    zs = np.array([p.z for p in ops], dtype=np.int64)
    signs = np.array([p.sign for p in ops], dtype=float)
    return xs, zs, signs


def _signed_permutations(
    xs: np.ndarray, zs: np.ndarray, signs: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index maps and coefficients with (P v)[c] = coeff[c] * v[src[c]].

    The operators are given as columns of ``_columns``, broadcast against
    the basis indices ``index``: an ``index`` of shape (s, 1) against m
    columns gives arrays of shape (s, m), and one of shape (s,) against
    columns of shape (m, 1) gives (m, s).  P|b> = sign * (-1)^{popcount(b & z)}
    |b ^ x>, so the amplitude at c is pulled from b = c ^ x with the phase
    evaluated at b.
    """
    import numpy as np

    src = index ^ xs
    coeff = np.where(np.bitwise_count(src & zs) & 1, -signs, signs)
    return src, coeff


def _sparse_codewords(
    code: StabilizerCode, max_amplitudes: int
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
    The generators' index maps and signs are built as many at a time as fit
    one chunk, so each of those arrays holds at most max(2^16, 2^n) entries.
    The third array lists each coset's smallest index in increasing order;
    the fourth is the X-span itself, the coset of 0, in increasing order.
    Before any array is built, refuses a state vector of 2^n amplitudes that
    is not within ``max_amplitudes``.
    """
    import numpy as np

    dim = 1 << code.n
    # Written so that a NaN, infinite or negative limit refuses too.
    if not dim <= max_amplitudes < math.inf:
        raise CapExceededError(
            f"kl check refused: n={code.n} needs {dim} amplitudes per state "
            f"vector; the limit is {max_amplitudes}"
        )
    _require_valid(code)
    k = code.n - code.a
    target = 1 << k
    index = np.arange(dim)
    xs, zs, signs = _columns(code.generators)
    # Index maps and coefficients for as many generators at a time as fit
    # one chunk: all of them at n <= 10, one at a time from n = 16.
    per = max(1, _CHUNK // dim)
    # Label each index by the smallest member of its coset: the minimum over
    # c ^ span(x_1..x_j) is the smaller of two such minima over span(x_1..x_j-1).
    label = index
    for g in range(0, len(xs), per):
        for s in index ^ xs[g : g + per, None]:
            label = np.minimum(label, label[s])
    reps = np.flatnonzero(label == index)
    v = np.zeros(dim)
    v[reps] = 1.0
    for g in range(0, len(xs), per):
        part = slice(g, g + per)
        src, coeff = _signed_permutations(xs[part, None], zs[part, None], signs[part, None], index)
        for s, c in zip(src, coeff):
            v += c * v[s]  # 2^a times the projection: integers, normalized exactly
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


class KLReport(NamedTuple):
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


def kl_check(
    code: StabilizerCode,
    errors: Iterable[PauliOperator],
    max_amplitudes: int = DEFAULT_MAX_AMPLITUDES,
) -> KLReport:
    """Check the error-correction conditions for the given error set.

    Passes when every inner product <psi_i| Ea' Eb |psi_j> matches
    C_ab * delta_ij within ``_TOLERANCE`` (1e-10), with C_ab taken as the
    diagonal (i = j) average.  When the diagonal blocks are not constant the
    report simply fails with the raw deviation.  ``max_amplitudes`` bounds
    the 2^n entries of a state vector; it and the code are checked before
    ``errors`` is read, so a refused check never iterates it.

    The errors' bits and signs are read once, into three arrays.  Every
    inner product is summed from amplitudes in one batched matmul per batch
    of cosets, whose amplitudes and products fit one chunk, read with one
    sum, one gather and one max (see the module docstring): work is
    O(m^2 2^n), memory O(chunk) plus O(2^n), and no 4^k Gram block is ever
    formed.  ``rank`` counts the eigenvalues of C, from one symmetric
    eigenvalue solve, whose magnitude exceeds ``np.linalg.matrix_rank``'s
    default threshold.  On a passing code ``max_deviation`` is rounding
    noise, and its digits below 1e-15 depend on the order of summation.
    """
    import numpy as np

    row, value, reps, span = _sparse_codewords(code, max_amplitudes)
    members = tuple(errors)
    if not members:
        raise ValueError("need at least one error operator")
    for e in members:
        if e.n != code.n:
            raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    dim_k = 1 << (code.n - code.a)
    m = len(members)
    # Coset t of the X-span is reps[t] ^ span.  E_a W is nonzero on coset t
    # only in row images[t, a], the row of the coset that x_a maps t onto.
    # That row equals images[t, b] for every t or for none, as the pair
    # property x_a ^ x_b in span decides; lead[a] is the row of x_a itself.
    xs, zs, signs = _columns(members)
    lead = row[xs]
    same = lead[:, None] == lead[None, :]
    pa, pb = np.nonzero(same)
    # E_a's sign at reps[t] ^ span[j] is its sign at reps[t] times
    # (-1)^popcount(span[j] & z_a).
    span_signs = 1.0 - 2.0 * (np.bitwise_count(span & zs[:, None]) & 1)
    # Per batch of cosets, amplitudes (m |span| per coset) and Gram products
    # (m^2 per coset) stay within _CHUNK entries, or the batch is one coset.
    batch = max(1, _CHUNK // (m * max(len(span), m)))
    total = np.zeros((m, m))
    high = np.full(len(pa), -np.inf)
    low = np.full(len(pa), np.inf)
    off = np.zeros((m, m))
    for b0 in range(0, len(reps), batch):
        # heads[t, a] = reps[t] ^ x_a, the index E_a pulls coset t's minimum from.
        heads, head_signs = _signed_permutations(xs, zs, signs, reps[b0 : b0 + batch, None])
        images = row[heads]
        live = (images < dim_k).any(axis=1)
        if not live.any():
            continue
        heads, head_signs, images = heads[live], head_signs[live], images[live]
        amps = np.take(value, heads[:, :, None] ^ span)  # amps[t, a]: E_a W's values on coset t
        amps *= head_signs[:, :, None]
        amps *= span_signs
        gram = np.matmul(amps, amps.transpose(0, 2, 1))
        # Coset t alone fills cell (images[t, a], images[t, b]) of G_ab with
        # gram[t, a, b].  A same-image pair's cells are diagonal where its
        # image is kept and exactly 0 where it is a discarded coset's (row
        # 2^k or more, value 0); any other pair's cells are all off the
        # diagonal.  So the plain sum is the diagonal sum, and |gram| is read
        # only for the other pairs, at the end.  NaN marks the discarded
        # cells, which fmax and fmin pass over.
        total += gram.sum(axis=0)
        diagonal = np.where(images[:, pa] < dim_k, gram[:, pa, pb], np.nan)
        np.fmax(high, np.fmax.reduce(diagonal, axis=0), out=high)
        np.fmin(low, np.fmin.reduce(diagonal, axis=0), out=low)
        np.maximum(off, np.abs(gram, out=gram).max(axis=0), out=off)
    c_matrix = np.where(same, total, 0.0) / dim_k
    off[same] = 0.0
    # A diagonal cell that no coset reaches holds 0, |C_ab| away from C_ab.
    # No term is needed for it: a pair of Pauli errors reaches either all
    # 2^k diagonal cells or none of them, and in the second case C_ab = 0.
    diagonal = c_matrix[pa, pb]
    max_deviation = float(max((high - diagonal).max(), (diagonal - low).max(), off.max()))
    # matrix_rank's default threshold, read off the eigenvalues: C is
    # symmetric, so its singular values are their absolute values.
    spectrum = np.abs(np.linalg.eigvalsh(c_matrix))
    rank = int(np.count_nonzero(spectrum > spectrum.max() * m * np.finfo(float).eps))
    return KLReport(
        c_matrix=c_matrix,
        max_deviation=max_deviation,
        passed=max_deviation < _TOLERANCE,
        rank=rank,
        full_rank=rank == m,
    )
