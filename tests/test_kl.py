import random

import numpy as np
import pytest

import qpaste.kl as kl
from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.kl import CapExceededError, _columns, _signed_permutations, kl_check
from qpaste.pauli import PauliOperator, format_pauli, identity, parse_pauli, tensor
from qpaste.stabilizer import StabilizerCode
from qpaste.verification import enumerate_errors, verify_distance3

from helpers import (
    degenerate_code6,
    dense,
    random_valid_code,
    scattered_codewords,
    shuffled_qubits,
)


def test_apply_pauli_matches_dense():
    # The signed permutations every state vector in kl_check goes through.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        vec = np.array([rng.uniform(-1, 1) for _ in range(1 << n)])
        src, coeff = _signed_permutations(*_columns([p]), np.arange(1 << n)[:, None])
        assert np.allclose(coeff[:, 0] * vec[src[:, 0]], dense(format_pauli(p)) @ vec)


def test_codewords_code5():
    code = builtin("code5")
    basis = scattered_codewords(code)
    assert basis.shape == (2, 32)
    gram = basis @ basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    for g in code.generators:
        fixed = dense(format_pauli(g)) @ basis.T
        assert np.allclose(fixed.T, basis, atol=1e-12)


def test_codewords_projector_rank_oracle():
    # Dense oracle: the product of (I + M)/2 projectors has rank 2^k.
    code = builtin("code5")
    projector = np.eye(32)
    for g in code.generators:
        projector = projector @ ((np.eye(32) + dense(format_pauli(g))) / 2)
    assert int(round(np.trace(projector))) == 2
    # The codewords span its range: it fixes each one.
    basis = scattered_codewords(code)
    assert np.allclose(basis @ projector.T, basis, atol=1e-12)


def test_codewords_code8():
    code = builtin("code8")
    basis = scattered_codewords(code)
    assert basis.shape == (8, 256)
    src, coeff = _signed_permutations(*_columns(code.generators), np.arange(256)[:, None])
    for s, c in zip(src.T, coeff.T):
        assert np.allclose(c * basis[:, s], basis, atol=1e-12)


def test_codewords_empty_generator_code():
    basis = scattered_codewords(StabilizerCode([], n=1))
    assert basis.shape == (2, 2)
    assert np.allclose(basis @ basis.T, np.eye(2))


def _refuse_to_build(monkeypatch):
    # The first step after the limit check; reaching it means building.
    def built(code):
        raise AssertionError("kl_check went on past its limit")

    monkeypatch.setattr(kl, "_require_valid", built)


def test_codewords_cap(monkeypatch):
    # kl_check refuses before it builds any codeword.
    _refuse_to_build(monkeypatch)
    refusal = r"^kl check refused: n=21 needs 2097152 amplitudes .*; the limit is 65536$"
    with pytest.raises(CapExceededError, match=refusal):
        kl_check(perfect(2), enumerate_errors(21, 1))
    with pytest.raises(CapExceededError, match=r"n=13 needs 8192 amplitudes .*the limit is 4096$"):
        kl_check(builtin("code13"), enumerate_errors(13, 1), max_amplitudes=1 << 12)


@pytest.mark.parametrize("limit", [float("nan"), float("inf"), -1, 0, 1 << 84])
def test_limit_that_admits_nothing_refuses_first(monkeypatch, limit):
    # perfect(3) has n = 85: only a finite limit of at least 2^85 admits it.
    _refuse_to_build(monkeypatch)
    refusal = rf"n=85 needs {1 << 85} amplitudes .*the limit is {limit}$"
    with pytest.raises(CapExceededError, match=refusal):
        kl_check(perfect(3), iter(()), max_amplitudes=limit)


def test_amplitudes_stream_in_chunks(monkeypatch):
    # Each chunk of cosets builds at most _CHUNK amplitudes; the weight-<=1
    # amplitudes of an n <= 10 code are built in one piece.
    builds, products = [], []
    permutations, matmul = kl._signed_permutations, np.matmul

    def recording_permutations(xs, zs, signs, index):
        # A chunk of cosets comes as a column of minima against m errors.
        if index.ndim == 2:
            builds.append(index.size * xs.size)
        return permutations(xs, zs, signs, index)

    def recording_matmul(*args, **kwargs):
        out = matmul(*args, **kwargs)
        products.append(out.size)
        return out

    monkeypatch.setattr(kl, "_signed_permutations", recording_permutations)
    monkeypatch.setattr(np, "matmul", recording_matmul)
    code = hamming_class(4)
    span = len(kl._sparse_codewords(code, 1 << 16)[3])
    report = kl_check(code, enumerate_errors(16, 1))
    assert report.passed and report.rank == 49
    # builds[i] counts (coset, error) pairs; each has `span` amplitudes.
    assert len(builds) > 1 and max(builds) * span <= kl._CHUNK
    assert sum(builds) * span == 49 << 16
    assert max(products) <= kl._CHUNK
    builds.clear()
    kl_check(builtin("code8"), enumerate_errors(8, 1))
    assert len(builds) == 1


def test_generator_maps_built_a_chunk_at_a_time(monkeypatch):
    # The codeword build holds the generators' index maps for as many of
    # them as fit one chunk: one at a time at n = 16, all at once at n = 8.
    builds = []
    permutations = kl._signed_permutations

    def recording_permutations(xs, zs, signs, index):
        src, coeff = permutations(xs, zs, signs, index)
        if index.ndim == 1:
            builds.append(src.shape)
        return src, coeff

    monkeypatch.setattr(kl, "_signed_permutations", recording_permutations)
    code = hamming_class(4)
    kl._sparse_codewords(code, 1 << 16)
    assert builds == [(1, 1 << 16)] * code.a
    builds.clear()
    kl._sparse_codewords(builtin("code8"), 1 << 16)
    assert builds == [(5, 256)]


def test_kl_code5():
    report = kl_check(builtin("code5"), enumerate_errors(5, 1))
    assert report.passed and report.full_rank
    assert report.c_matrix.shape == (16, 16)
    assert np.allclose(report.c_matrix, np.eye(16), atol=1e-12)
    assert report.max_deviation < 1e-10


def test_kl_code8():
    report = kl_check(builtin("code8"), enumerate_errors(8, 1))
    assert report.passed and report.full_rank and report.rank == 25
    assert np.allclose(np.diag(report.c_matrix), 1.0, atol=1e-12)


def test_kl_code13_at_the_default_limit():
    report = kl_check(builtin("code13"), enumerate_errors(13, 1))
    assert report.passed and report.full_rank and report.rank == 40


def test_kl_hamming_class4_at_the_default_limit():
    # n = 16, k = 10: 2^10 x 2^10 Gram blocks, of which only the cells the
    # 2^16 basis indices reach are ever formed.
    report = kl_check(hamming_class(4), enumerate_errors(16, 1))
    assert report.passed and report.full_rank and report.rank == 49


def test_kl_identity_only():
    report = kl_check(builtin("code5"), [identity(5)])
    assert report.passed and report.c_matrix.shape == (1, 1)
    assert abs(report.c_matrix[0, 0] - 1.0) < 1e-12


def test_kl_argument_checks():
    with pytest.raises(ValueError, match="qubits"):
        kl_check(builtin("code5"), [identity(4)])
    with pytest.raises(ValueError, match="at least one"):
        kl_check(builtin("code5"), [])


def test_kl_degenerate_code():
    # Valid degenerate code: conditions hold but C is rank deficient.
    code = degenerate_code6()
    report = kl_check(code, enumerate_errors(6, 1))
    assert report.passed and not report.full_rank
    assert report.rank == 18 and report.c_matrix.shape == (19, 19)
    assert not verify_distance3(code).ok


def test_kl_flags_a_bad_code():
    # Two generators on four qubits leave weight-2 logical operators, so the
    # inner products depend on the codeword indices and the check fails.
    code = StabilizerCode([parse_pauli("XXXX"), parse_pauli("ZZZZ")])
    report = kl_check(code, enumerate_errors(4, 1))
    assert not report.passed
    assert not verify_distance3(code).ok


def test_kl_agrees_with_syndrome_route():
    rng = random.Random(43)
    codes = [
        shuffled_qubits(rng, builtin("code5")),
        shuffled_qubits(rng, builtin("code8")),
        random_valid_code(rng, 6, 4),
        random_valid_code(rng, 7, 5),
    ]
    for code in codes:
        kl = kl_check(code, enumerate_errors(code.n, 1))
        assert (kl.passed and kl.full_rank) == verify_distance3(code).ok


@pytest.mark.parametrize("beside_code5", [False, True])
def test_minus_group_excusal_agrees_with_kl(beside_code5):
    # adjoint(YI).IY = -YY lies in -S: YI and IY act alike on the codespace.
    code = StabilizerCode([parse_pauli("XX"), parse_pauli("ZZ")])
    if beside_code5:
        five = builtin("code5")
        rows = [tensor(g, identity(2)) for g in five.generators]
        rows += [tensor(identity(5), g) for g in code.generators]
        code = StabilizerCode(rows)
    kl = kl_check(code, enumerate_errors(code.n, 1))
    assert kl.passed and not kl.full_rank
    report = verify_distance3(code, allow_degenerate=True)
    assert report.ok and report.degenerate and report.witness is None
    pad = "IIIII" if beside_code5 else ""
    pairs = [(format_pauli(e), format_pauli(f)) for e, f in report.degenerate_pairs]
    assert pairs == [(pad + a, pad + b) for a, b in (("XI", "IX"), ("YI", "IY"), ("ZI", "IZ"))]
    assert not verify_distance3(code).ok
