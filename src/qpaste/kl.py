"""Dense-statevector oracle for the error-correction conditions.

Builds explicit codewords as the joint +1 eigenspace of the generators and
checks the Knill-Laflamme structure <psi_i| Ea' Eb |psi_j> = C_ab delta_ij
directly.  Everything is real arithmetic: with the real Y convention each
Pauli product acts on a state vector as a signed permutation of basis
indices, never as a dense matrix.

Each codeword is the projection of one basis state, so it is supported on
that state's coset of the generators' X-span, and no two codewords share a
basis index.  The projection is exact: 2^a P|r> is +-2^a/|span| on a kept
coset and 0 on a discarded one.  So the codewords are held as their signs,
one per basis index, and each coset is named by its smallest index.

As c -> c ^ x_a maps cosets onto cosets, each coset that E_a maps onto a
kept coset fills one cell of the Gram block G_ab, and distinct cosets
distinct cells; the cell is on the diagonal for every coset or for none,
as x_a ^ x_b lies in the X-span or not.  ``kl_check`` streams the cosets
that some error maps onto a kept coset in batches of one size, as many as
keep their amplitudes (m |span| each) and Gram products (m^2 each) within
one chunk.  Per batch, one XOR and one popcount give every error's source
index and sign, one gather the signs of all m errors' E_a W, and one
batched ``np.matmul`` the m x m restricted inner products, read with one
sum (the diagonal sum of the same-image pairs, whose other cells hold
exactly 0), one gather of those pairs' extremes on kept images and one
|.| max off the diagonal.  When one batch holds every live coset, as it
usually does at n <= 10, those four reductions are the results; running
values are combined only from the second batch on.

Every amplitude is 0 or +-1, so every value built, product and sum is an
integer up to 2^n, exact in float32 for n <= 24 (``_EXACT_AMPLITUDES``) in
any order of summation, and C and the deviations follow in float64 by
power-of-two divisions: a code passes when its deviation is exactly 0; any
other deviation is at least 2^-n.  Work is O(m^2 2^n) in BLAS, with no 4^k
term, plus O((n - k) 2^n) to build the codewords, as many generators at a
time as fit one chunk.  Memory is O(chunk + 2^n + m 2^k), the last term to
find the cosets the errors reach; the Hamming bound keeps m 2^k <= 2^n for
a one-error code's weight-<=1 errors.  The rank of the symmetric m x m
matrix C comes from one eigenvalue solve.

This route is independent of the syndrome-level checks and is meant for
cross-validation at small n; by default it refuses state vectors of more
than 2^16 amplitudes (n > 16), and always more than 2^24.  numpy is
imported where used, so importing the package does not load it.
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
# float32 holds every integer up to 2^24, and every value kl_check builds or
# sums is an integer up to 2^n: it refuses longer state vectors at any limit.
_EXACT_AMPLITUDES = 1 << 24


class CapExceededError(ValueError):
    """Dense-statevector work refused because a state vector would be too long."""


def _columns(ops: Sequence[PauliOperator], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each operator's x bits, z bits and sign as three arrays.

    The first operator that acts on other than n qubits raises ValueError.
    """
    import numpy as np

    lengths, xs, zs, signs = zip(*ops) if ops else ((),) * 4
    for length in lengths:
        if length != n:
            raise ValueError(f"error acts on {length} qubits, code has {n}")
    return (
        np.array(xs, dtype=np.int64),
        np.array(zs, dtype=np.int64),
        np.array(signs, dtype=np.float32),
    )


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
    """The codewords' signs, each index's coset, the kept cosets and the X-span.

    The projector prod_i (I + M_i)/2 maps |b> into the span of b's coset of
    the generators' X-span, and every other member of that coset projects
    to +/- the same vector.  So only each coset's smallest index is
    projected, all at once in one vector v = 2^a P (sum of those |b>), as
    their supports are disjoint.  v holds integers: +-2^a/|span| on every
    member of a kept coset and 0 on a discarded one.  A count of kept
    cosets other than 2^k, or any other nonzero magnitude, raises
    RuntimeError.  Codeword i is ``value / sqrt(|span|)`` on the i-th kept
    coset and 0 elsewhere; disjoint supports make the codewords orthonormal
    without Gram-Schmidt.

    Returns ``label``, each index's smallest coset member; ``value``,
    sign(v); ``kept``, the kept cosets' smallest indices in increasing
    order, which is the codeword order; and the X-span itself, the coset of
    0, in increasing order.  The generators' index maps and signs are built
    as many at a time as fit one chunk, so each of those arrays holds at
    most max(2^16, 2^n) entries.  Before any array is built, refuses a state
    vector of 2^n amplitudes beyond ``max_amplitudes`` or ``_EXACT_AMPLITUDES``.
    """
    import numpy as np

    dim = 1 << code.n
    refused = f"kl check refused: n={code.n} needs {dim} amplitudes per state vector"
    # Written so that a NaN, infinite or negative limit refuses too.
    if not dim <= max_amplitudes < math.inf:
        raise CapExceededError(f"{refused}; the limit is {max_amplitudes}")
    if dim > _EXACT_AMPLITUDES:
        raise CapExceededError(f"{refused}; float32 sums are exact only up to 2^24 (n <= 24)")
    _require_valid(code)
    k = code.n - code.a
    index = np.arange(dim)
    xs, zs, signs = _columns(code.generators, code.n)
    # Index maps and coefficients for as many generators at a time as fit
    # one chunk: all of them at n <= 10, one at a time from n = 16.
    per = max(1, _CHUNK // dim)
    parts = [slice(g, g + per) for g in range(0, len(xs), per)]

    def maps(part: slice) -> tuple[np.ndarray, np.ndarray]:
        return _signed_permutations(xs[part, None], zs[part, None], signs[part, None], index)

    # When one chunk holds every generator, its index maps serve both the
    # labels and the projection; with more chunks the projection builds
    # each chunk's maps again, as holding them all would not fit one chunk.
    whole = maps(parts[0]) if len(parts) == 1 else None
    # Label each index by the smallest member of its coset: the minimum over
    # c ^ span(x_1..x_j) is the smaller of two such minima over span(x_1..x_j-1).
    label = index
    for part in parts:
        for s in whole[0] if whole else index ^ xs[part, None]:
            label = np.minimum(label, label[s])
    reps = (label == index).nonzero()[0]
    span = (label == 0).nonzero()[0]
    v = np.zeros(dim, dtype=np.float32)
    v[reps] = 1.0
    for part in parts:
        src, coeff = whole or maps(part)
        for s, c in zip(src, coeff):
            v += c * v[s]
    kept = reps[v[reps] != 0]
    if len(kept) != 1 << k:
        raise RuntimeError(
            f"projector produced {len(kept)} directions, expected 2^{k}; "
            "the generator set is inconsistent"
        )
    value = np.sign(v)
    if not (v == value * ((1 << code.a) // len(span))).all():
        raise RuntimeError(
            "projector produced an amplitude of magnitude other than 0 and "
            f"2^{code.a}/{len(span)}; the generator set is inconsistent"
        )
    return label, value, kept, span


class KLReport(NamedTuple):
    """Error-pair Gram structure of a code.

    ``c_matrix`` holds C_ab averaged over the codeword diagonal, in float64;
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

    Passes when every inner product <psi_i| Ea' Eb |psi_j> equals
    C_ab * delta_ij exactly, with C_ab taken as the diagonal (i = j)
    average; otherwise the report fails with the largest deviation.  The
    sums are exact (see the module docstring), so ``max_deviation`` is 0.0
    on a passing code.  ``max_amplitudes`` bounds the 2^n entries of a
    state vector; it and the code are checked before ``errors`` is read, so
    a refused check never iterates it.  An empty error set, or an error on
    other than n qubits, raises ValueError.

    Work is O(m^2 2^n) and memory O(chunk + 2^n + m 2^k); no 4^k Gram
    block is ever formed.  ``rank`` counts the eigenvalues of C, from one
    symmetric eigenvalue solve, whose magnitude exceeds
    ``np.linalg.matrix_rank``'s default threshold.
    """
    import numpy as np

    label, value, kept, span = _sparse_codewords(code, max_amplitudes)
    errors = tuple(errors)
    if not errors:
        raise ValueError("need at least one error operator")
    xs, zs, signs = _columns(errors, code.n)
    dim_k = len(kept)
    m = len(xs)
    # E_a maps the coset named t onto the coset of t ^ x_a.  That coset is
    # the one x_b maps t onto for every t or for none, as the pair property
    # x_a ^ x_b in span decides; lead[a] names the coset of x_a itself.
    lead = label[xs]
    same = lead[:, None] == lead[None, :]
    pa, pb = same.nonzero()
    # The cosets some error maps onto a kept coset: E_a W vanishes on the
    # rest.  A mask sorts them without np.unique, which imports numpy.ma.
    reached = np.zeros(len(label), dtype=bool)
    reached[label[kept[:, None] ^ xs]] = True
    sources = reached.nonzero()[0]
    # E_a's sign at t ^ span[j] is its sign at t times (-1)^popcount(span[j] & z_a).
    span_signs = np.where(np.bitwise_count(span & zs[:, None]) & 1, np.float32(-1), np.float32(1))
    # Per batch of cosets, amplitudes (m |span| per coset) and Gram products
    # (m^2 per coset) stay within _CHUNK entries, or the batch is one coset.
    batch = max(1, _CHUNK // (m * max(len(span), m)))
    for b0 in range(0, len(sources), batch):
        # heads[t, a] = t ^ x_a, the index E_a pulls coset t's minimum from.
        heads, head_signs = _signed_permutations(xs, zs, signs, sources[b0 : b0 + batch, None])
        amps = value.take(heads[:, :, None] ^ span)  # amps[t, a]: E_a W's signs on coset t
        amps *= head_signs[:, :, None]
        amps *= span_signs
        gram = np.matmul(amps, amps.transpose(0, 2, 1))
        # Coset t alone fills one cell of G_ab with gram[t, a, b] / |span|.
        # A same-image pair's cell is diagonal where its image is kept and
        # exactly 0 where it is discarded; any other pair's cells are all
        # off the diagonal.  So the plain sum is the diagonal sum, and |gram|
        # is read only for the other pairs, at the end.  NaN marks the
        # discarded images, which fmax and fmin pass over: a pair with no
        # kept image in the batch reduces to -inf and inf.
        diagonal = np.where((value[heads] != 0)[:, pa], gram[:, pa, pb], np.nan)
        reduced = (
            gram.sum(axis=0),
            np.fmax.reduce(diagonal, axis=0, initial=-np.inf),
            np.fmin.reduce(diagonal, axis=0, initial=np.inf),
            np.abs(gram, out=gram).max(axis=0),
        )
        # At n <= 10 one batch usually holds every live coset: its
        # reductions are then the results, and only a later batch combines
        # them with running values.
        if b0:
            reduced = (
                total + reduced[0],
                np.fmax(high, reduced[1]),
                np.fmin(low, reduced[2]),
                np.maximum(off, reduced[3]),
            )
        total, high, low, off = reduced
    # total, high, low and off hold integers |span| times the inner
    # products, so the divisions by 2^k and |span| below are exact.
    total = total.astype(float)
    c_matrix = np.where(same, total, 0.0) / (dim_k * len(span))
    off[same] = 0.0
    # A diagonal cell that no coset reaches holds 0, |C_ab| away from C_ab.
    # No term is needed for it: a pair of Pauli errors reaches either all
    # 2^k diagonal cells or none of them, and in the second case C_ab = 0.
    diagonal = total[pa, pb] / dim_k
    spread = max((high - diagonal).max(), (diagonal - low).max(), off.max())
    max_deviation = float(spread) / len(span)
    # matrix_rank's default threshold, read off the eigenvalues: C is
    # symmetric, so its singular values are their absolute values.
    spectrum = np.abs(np.linalg.eigvalsh(c_matrix))
    rank = int(np.count_nonzero(spectrum > spectrum.max() * m * np.finfo(float).eps))
    return KLReport(
        c_matrix=c_matrix,
        max_deviation=max_deviation,
        passed=max_deviation == 0.0,
        rank=rank,
        full_rank=rank == m,
    )
