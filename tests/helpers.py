"""Shared test utilities: independent oracles and code samplers.

The oracles here deliberately avoid the package's bit-packed paths: dense
matrices are built with numpy kron from plain strings, commutation is
counted character by character or from the operators' x and z fields, and
span membership uses a numpy mod-2 elimination or ``ReferenceEliminator``.
They exist to cross-check the fast implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from qpaste.catalog import builtin, hamming_class
from qpaste.kl import DEFAULT_MAX_AMPLITUDES, KLReport, _sparse_codewords
from qpaste.pauli import PauliOperator, identity, multiply, parse_pauli
from qpaste.stabilizer import StabilizerCode, ValidationReport, Violation, contains
from qpaste.pasting import augment
from qpaste.verification import DistanceReport, enumerate_errors

MAT = {
    "I": np.array([[1, 0], [0, 1]], dtype=int),
    "X": np.array([[0, 1], [1, 0]], dtype=int),
    "Y": np.array([[0, -1], [1, 0]], dtype=int),
    "Z": np.array([[1, 0], [0, -1]], dtype=int),
}


def dense(text: str) -> np.ndarray:
    """Dense matrix of a Pauli string, first character acting on qubit 1.

    Qubit 1 is the least significant bit of the basis index, matching the
    package's statevector convention, so kron factors go last-to-first.
    """
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    out = np.array([[1]], dtype=int)
    for ch in text:
        out = np.kron(MAT[ch], out)
    return sign * out


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


def syndrome(code: StabilizerCode, error: PauliOperator) -> Syndrome:
    """Commutation vector of ``error`` against each generator.

    Linear under operator products: syndrome(E.F) = syndrome(E) XOR
    syndrome(F).  The identity error maps to all-zero.
    """
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return Syndrome(tuple([anticommutes(g, error) for g in code.generators]))


def anticommutes(p: PauliOperator, q: PauliOperator) -> int:
    """1 when p and q anticommute: an odd count of qubits where both factors
    are non-identity and differ, read from the x and z fields."""
    assert p.n == q.n
    differ = (p.x ^ q.x) | (p.z ^ q.z)
    return ((p.x | p.z) & (q.x | q.z) & differ).bit_count() & 1


def _odd_y_count(p: PauliOperator) -> bool:
    """Whether an odd number of qubits carry Y, both field bits set."""
    return bool((p.x & p.z).bit_count() & 1)


def adjoint(p: PauliOperator) -> PauliOperator:
    """Conjugate transpose: p up to the sign of p.p, -1 exactly when the Y count is odd."""
    return PauliOperator(p.n, p.x, p.z, -p.sign if _odd_y_count(p) else p.sign)


def char_commutes(a: str, b: str) -> int:
    """1 when the strings anticommute: odd count of differing non-I pairs."""
    assert len(a) == len(b)
    clashes = sum(1 for p, q in zip(a, b) if p != "I" and q != "I" and p != q)
    return clashes & 1


def char_syndrome(generators: list[str], error: str) -> str:
    return "".join(str(char_commutes(g, error)) for g in generators)


def np_gf2_rank(matrix: np.ndarray) -> int:
    work = matrix.copy() % 2
    rank = 0
    rows, cols = work.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if work[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        for r in range(rows):
            if r != rank and work[r, c]:
                work[r] = (work[r] + work[rank]) % 2
        rank += 1
    return rank


def string_symplectic(text: str) -> np.ndarray:
    """Concatenated (x | z) 0/1 vector of a Pauli string."""
    n = len(text)
    row = np.zeros(2 * n, dtype=int)
    for i, ch in enumerate(text):
        if ch in "XY":
            row[i] = 1
        if ch in "ZY":
            row[n + i] = 1
    return row


def np_in_span(rows: list[str], candidate: str) -> bool:
    base = np.array([string_symplectic(r) for r in rows])
    stacked = np.vstack([base, string_symplectic(candidate)])
    return np_gf2_rank(stacked) == np_gf2_rank(base)


class ReferenceEliminator:
    """Plain GF(2) elimination, apart from ``gf2.Eliminator``: each basis row
    keeps the set of inserted rows that XOR to it, pivots on its highest bit
    and is reduced one bit test at a time, highest bit first."""

    def __init__(self, width: int, rows: list[int]):
        self.width = width
        self.basis: dict[int, tuple[int, int]] = {}  # top bit -> (row, combination)
        self.dependent: list[int] = []
        for index, row in enumerate(rows):
            rest, combination = self._reduce(row, 1 << index)
            if rest:
                self.basis[rest.bit_length() - 1] = (rest, combination)
            else:
                self.dependent.append(index)

    def _reduce(self, row: int, combination: int) -> tuple[int, int]:
        for bit in reversed(range(self.width)):
            if (row >> bit) & 1 and bit in self.basis:
                pivot_row, pivot_combination = self.basis[bit]
                row ^= pivot_row
                combination ^= pivot_combination
        return row, combination

    @property
    def rank(self) -> int:
        return len(self.basis)

    def solve(self, target: int) -> int | None:
        rest, combination = self._reduce(target, 0)
        return None if rest else combination


def reference_violations(code: StabilizerCode) -> tuple[Violation, ...]:
    """validate's violations from one Y count per generator, one anticommutes
    per pair and the reference elimination of the symplectic rows."""
    gens = code.generators
    out = [
        Violation("square", (i,), f"generator {i} squares to -1 (odd Y count)")
        for i, g in enumerate(gens, start=1)
        if _odd_y_count(g)
    ]
    out += [
        Violation("anticommute", (i, j), f"generators {i} and {j} anticommute")
        for i, j in combinations(range(1, len(gens) + 1), 2)
        if anticommutes(gens[i - 1], gens[j - 1])
    ]
    elim = ReferenceEliminator(2 * code.n, [g.x | (g.z << code.n) for g in gens])
    out += [
        Violation(
            "rank",
            (i + 1,),
            f"generator {i + 1} is a product of earlier ones, rank {elim.rank} < {code.a}",
        )
        for i in elim.dependent
    ]
    return tuple(out)


def random_pauli(rng: random.Random, n: int) -> PauliOperator:
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))


def random_valid_code(rng: random.Random, n: int, a: int) -> StabilizerCode:
    """Rejection-sample a commuting, independent, square-to-+1 generator set."""
    rows: list[PauliOperator] = []
    packed: list[int] = []
    while len(rows) < a:
        x = rng.getrandbits(n)
        z = rng.getrandbits(n)
        p = PauliOperator(n, x, z, 1)
        if (x & z).bit_count() & 1:
            continue
        if any(anticommutes(p, q) for q in rows):
            continue
        if ReferenceEliminator(2 * n, packed + [x | (z << n)]).rank != len(rows) + 1:
            continue
        rows.append(p)
        packed.append(x | (z << n))
    return StabilizerCode(rows, n)


def random_mixer(rng: random.Random, m: int) -> list[int]:
    """Random m x m GF(2) matrix rows with the matrix and its successor invertible.

    Needs m >= 2: for m = 1 the only invertible L is 1 and L + I = 0 is
    singular, so there is nothing to draw.
    """
    if m < 2:
        raise ValueError(f"no m x m mixer with L and L + I invertible for m = {m}")
    while True:
        rows = [rng.getrandbits(m) for _ in range(m)]
        if ReferenceEliminator(m, rows).rank != m:
            continue
        if ReferenceEliminator(m, [row ^ (1 << r) for r, row in enumerate(rows)]).rank != m:
            continue
        return rows


def reference_label_images(m: int, rows: list[int]) -> list[int]:
    """L(v) for every label v, one parity per row and label: (L v)_r = <row_r, v>."""
    images = []
    for v in range(1 << m):
        image = 0
        for r, row in enumerate(rows):
            image |= ((row & v).bit_count() & 1) << r
        images.append(image)
    return images


def reference_hamming_rows(m: int, rows: list[int]) -> list[PauliOperator]:
    """Rows 3..m+2 of the 2^m family member with mixer ``rows``, label by label:
    row 2+r has an x bit on qubit v where (L v)_r = 1 and a z bit where v_r = 1."""
    n = 1 << m
    images = reference_label_images(m, rows)
    return [
        PauliOperator(
            n,
            sum(((images[v] >> r) & 1) << v for v in range(n)),
            sum(((v >> r) & 1) << v for v in range(n)),
        )
        for r in range(m)
    ]


def reed_muller_code(m: int) -> StabilizerCode:
    """The CSS quantum Reed-Muller code [[2^m, 2^m - 2m - 2, 4]] for m >= 4
    (Steane, quant-ph/9608026).  Its X rows and its Z rows are both the rows
    of RM(1, m): the all-ones row and the m coordinate rows, row r with bit v
    set where v_r = 1."""
    n = 1 << m
    rows = [(1 << n) - 1] + [sum(((v >> r) & 1) << v for v in range(n)) for r in range(m)]
    x_rows = [PauliOperator(n, row, 0) for row in rows]
    return StabilizerCode(x_rows + [PauliOperator(n, 0, row) for row in rows], n)


def permute_qubits(code: StabilizerCode, perm: list[int]) -> StabilizerCode:
    """Relabel qubits: new position j takes the factor of old position perm[j]."""
    rows = []
    for g in code.generators:
        x = 0
        z = 0
        for j, old in enumerate(perm):
            x |= ((g.x >> old) & 1) << j
            z |= ((g.z >> old) & 1) << j
        rows.append(PauliOperator(code.n, x, z, 1))
    return StabilizerCode(rows, code.n)


def shuffled_qubits(rng: random.Random, code: StabilizerCode) -> StabilizerCode:
    perm = list(range(code.n))
    rng.shuffle(perm)
    return permute_qubits(code, perm)


def repeat_qubit(code: StabilizerCode, q: int) -> StabilizerCode:
    """Append a copy of qubit ``q`` through an inner repetition pair.

    X on the repeated qubit becomes XX across the pair, Z stays on the
    original column, and a ZZ generator ties the pair together.  The
    result is a valid code with a syndrome collision between the two Z
    errors that is excused by the new generator, i.e. a degenerate code.
    """
    n = code.n
    rows = []
    for g in code.generators:
        xq = (g.x >> q) & 1
        rows.append(PauliOperator(n + 1, g.x | (xq << n), g.z, 1))
    rows.append(PauliOperator(n + 1, 0, (1 << q) | (1 << n), 1))
    return StabilizerCode(rows, n + 1)


def direct_sum(left: StabilizerCode, right: StabilizerCode) -> StabilizerCode:
    """Two codes side by side on left.n + right.n qubits: left's rows on the
    first left.n qubits, then right's rows on the rest."""
    n = left.n + right.n
    rows = [PauliOperator(n, g.x, g.z) for g in left.generators]
    rows += [PauliOperator(n, g.x << left.n, g.z << left.n) for g in right.generators]
    return StabilizerCode(rows, n)


def degenerate_code6() -> StabilizerCode:
    return repeat_qubit(builtin("code5"), 0)


def paste_sample(rng: random.Random, index: int) -> tuple[StabilizerCode, StabilizerCode]:
    """A precondition-satisfying (larger, smaller) pair, cycling scenarios.

    Mixes catalog codes, randomized members of the n=2^m family and
    qubit-permuted variants, with placeholder padding on either side.
    """
    scenario = index % 6
    if scenario == 0:
        larger = augment(builtin("code8"), 1)
        smaller = shuffled_qubits(rng, builtin("code5"))
    elif scenario == 1:
        larger = augment(hamming_class(3, mixer=random_mixer(rng, 3)), 1)
        smaller = shuffled_qubits(rng, builtin("code5"))
    elif scenario == 2:
        larger = hamming_class(4, mixer=random_mixer(rng, 4))
        smaller = shuffled_qubits(rng, builtin("code5"))
    elif scenario == 3:
        larger = augment(hamming_class(4, mixer=random_mixer(rng, 4)), 1)
        smaller = hamming_class(3, mixer=random_mixer(rng, 3))
    elif scenario == 4:
        larger = augment(shuffled_qubits(rng, builtin("code8")), 2)
        smaller = shuffled_qubits(rng, builtin("code8"))
    else:
        larger = augment(hamming_class(4, mixer=random_mixer(rng, 4)), 1)
        # A leading identity row pads the smaller code in front.
        code5 = shuffled_qubits(rng, builtin("code5"))
        smaller = StabilizerCode((identity(5),) + code5.generators, 5)
    return larger, smaller


def shor_code9() -> StabilizerCode:
    """Shor's [[9,1,3]] code, degenerate: Z errors within a block collide."""
    rows = (
        "ZZIIIIIII",
        "IZZIIIIII",
        "IIIZZIIII",
        "IIIIZZIII",
        "IIIIIIZZI",
        "IIIIIIIZZ",
        "XXXXXXIII",
        "IIIXXXXXX",
    )
    return StabilizerCode([parse_pauli(r) for r in rows])


def same_group(first: StabilizerCode, second: StabilizerCode) -> bool:
    """Whether two generator lists generate the same signed group: each
    contains the other's generators."""
    if first.n != second.n:
        return False
    return all(contains(second, g) for g in first.generators) and all(
        contains(first, g) for g in second.generators
    )


def generator_product(code: StabilizerCode, mask: int) -> PauliOperator:
    """Sign-exact product of the generators selected by ``mask``, bit i for
    row i + 1: a ``multiply`` fold over ``code.generators`` in row order."""
    product = identity(code.n)
    for i, g in enumerate(code.generators):
        if mask >> i & 1:
            product = multiply(product, g)
    return product


def _in_signed_group(code: StabilizerCode, p: PauliOperator) -> bool:
    negated = PauliOperator(p.n, p.x, p.z, -p.sign)
    return contains(code, p) or contains(code, negated)


def reference_syndrome_table(code: StabilizerCode) -> list[tuple[int, int, int]]:
    """Per-qubit (X, Y, Z) syndromes from one syndrome() call per error."""
    errors = enumerate_errors(code.n, 1)[1:]
    keys = [syndrome(code, e).as_int() for e in errors]
    return [tuple(keys[3 * i : 3 * i + 3]) for i in range(code.n)]


def reference_verify_distance3(code: StabilizerCode, allow_degenerate: bool) -> DistanceReport:
    """verify_distance3 with one syndrome() call per error, in enumeration order.

    A collision is excused when adjoint(E).F lies in the group up to sign.
    """
    errors = enumerate_errors(code.n, 1)
    seen: dict[int, PauliOperator] = {}
    excused = []
    for e in errors:
        key = syndrome(code, e).as_int()
        first = seen.get(key)
        if first is None:
            seen[key] = e
            continue
        if allow_degenerate and _in_signed_group(code, multiply(adjoint(first), e)):
            excused.append((first, e))
            continue
        return DistanceReport(
            False, bool(excused), len(seen), len(errors), (first, e), tuple(excused)
        )
    return DistanceReport(True, bool(excused), len(seen), len(errors), None, tuple(excused))


def reference_distance(code: StabilizerCode, max_weight: int) -> int | None:
    """Brute-force distance over weights 1..max_weight.

    Single-qubit syndromes come from syndrome(); a candidate's syndrome is
    their XOR (syndrome() is linear, see test_stabilizer), which keeps the
    n = 341 search within a second or two.
    """
    n = code.n
    table = reference_syndrome_table(code)
    for w in range(1, max_weight + 1):
        for positions in combinations(range(n), w):
            for factors in product(range(3), repeat=w):
                s = 0
                for q, f in zip(positions, factors):
                    s ^= table[q][f]
                if s:
                    continue
                x = z = 0
                for q, f in zip(positions, factors):
                    x |= (f < 2) << q
                    z |= (f > 0) << q
                if not _in_signed_group(code, PauliOperator(n, x, z, 1)):
                    return w
    return None


def reference_best_k(n: int) -> int | None:
    """Largest k with (3n+1) * 2^k <= 2^n by doubling, or None when k=0 fails."""
    lhs = 3 * n + 1
    rhs = 1 << n
    if lhs > rhs:
        return None
    k = 0
    while (lhs << (k + 1)) <= rhs:
        k += 1
    return k


def _reference_signed_permutation(p: PauliOperator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(P v)[c] = coeff[c] * v[src[c]] for one operator, built on its own."""
    idx = np.arange(dim)
    src = idx ^ p.x
    parity = np.bitwise_count(src & p.z) & 1
    coeff = p.sign * np.where(parity, -1.0, 1.0)
    return src, coeff


def scattered_codewords(
    code: StabilizerCode, max_amplitudes: int = DEFAULT_MAX_AMPLITUDES
) -> np.ndarray:
    """The 2^k x 2^n codeword basis that ``kl_check`` reads as signs, made dense:
    codeword i is the signs on the i-th kept coset over sqrt(|span|)."""
    label, value, kept, span = _sparse_codewords(code, max_amplitudes)
    basis = np.zeros((len(kept), len(label)))
    on = np.flatnonzero(value)
    basis[np.searchsorted(kept, label[on]), on] = value[on] / np.sqrt(len(span))
    return basis


def reference_codewords(code: StabilizerCode) -> np.ndarray:
    """Codeword basis by projecting each basis state in index order.

    Surviving directions are orthonormalized by modified Gram-Schmidt,
    discarding residuals below norm 1e-8.
    """
    dim = 1 << code.n
    target = 1 << (code.n - code.a)
    actions = [_reference_signed_permutation(g, dim) for g in code.generators]
    basis: list[np.ndarray] = []
    for b in range(dim):
        v = np.zeros(dim)
        v[b] = 1.0
        for src, coeff in actions:
            v = 0.5 * (v + coeff * v[src])
        for u in basis:
            v = v - (u @ v) * u
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            basis.append(v / norm)
            if len(basis) == target:
                break
    assert len(basis) == target
    return np.array(basis)


def reference_kl_check(code: StabilizerCode, errors) -> KLReport:
    """kl_check with one dense Gram block matmul per error pair."""
    w = reference_codewords(code)
    dim_k, dim = w.shape
    transformed = []
    for e in errors:
        src, coeff = _reference_signed_permutation(e, dim)
        transformed.append(coeff * w[:, src])
    m = len(transformed)
    c_matrix = np.empty((m, m))
    eye = np.eye(dim_k)
    max_deviation = 0.0
    for a in range(m):
        for b in range(a, m):
            gram = transformed[a] @ transformed[b].T
            c_ab = float(np.trace(gram)) / dim_k
            c_matrix[a, b] = c_ab
            c_matrix[b, a] = c_ab
            max_deviation = max(max_deviation, float(np.max(np.abs(gram - c_ab * eye))))
    rank = int(np.linalg.matrix_rank(c_matrix))
    return KLReport(c_matrix, max_deviation, max_deviation < 1e-10, rank, rank == m)


def fail_distance3_on(monkeypatch, n: int) -> None:
    """Make the pasting module's ``verify_distance3`` report a collision
    between X1 and Z1 on every n-qubit code, and pass other codes through."""
    import qpaste.pasting as pasting

    real = pasting.verify_distance3

    def failing(code, allow_degenerate=False):
        report = real(code, allow_degenerate)
        if code.n != n:
            return report
        x1, _, z1 = enumerate_errors(n, 1)[1:4]
        return report._replace(ok=False, witness=(x1, z1))

    monkeypatch.setattr(pasting, "verify_distance3", failing)


def fail_validation_on(monkeypatch, n: int) -> None:
    """Make the pasting module's ``validate`` report two violations on every
    n-qubit code, and pass other codes through."""
    import qpaste.pasting as pasting

    real = pasting.validate
    violations = (
        Violation("anticommute", (1, 3), "rows anticommute"),
        Violation("rank", (2,), "row depends on earlier rows"),
    )

    def failing(code):
        return ValidationReport(False, violations) if code.n == n else real(code)

    monkeypatch.setattr(pasting, "validate", failing)
