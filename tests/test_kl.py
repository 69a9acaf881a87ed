import hashlib
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
    shor_code9,
    shuffled_qubits,
)


def assert_exact(report):
    # Every amplitude kl_check multiplies is 0 or +-1, so a passing code
    # deviates by exactly 0 and C holds only -1, 0 and 1.
    assert report.passed and report.max_deviation == 0.0
    assert set(np.unique(report.c_matrix)) <= {-1.0, 0.0, 1.0}


def test_apply_pauli_matches_dense():
    # The signed permutations every state vector in kl_check goes through.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        vec = np.array([rng.uniform(-1, 1) for _ in range(1 << n)])
        src, coeff = _signed_permutations(*_columns([p], n), np.arange(1 << n)[:, None])
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
    src, coeff = _signed_permutations(*_columns(code.generators, 8), np.arange(256)[:, None])
    for s, c in zip(src.T, coeff.T):
        assert np.allclose(c * basis[:, s], basis, atol=1e-12)


def test_codeword_magnitudes_are_checked(monkeypatch):
    # Doubling one generator's coefficients in the codeword build keeps both
    # of code5's cosets but mixes magnitudes 3 and 1 in the projection; the
    # build refuses it instead of normalizing it away.
    permutations = kl._signed_permutations

    def doubled_first_generator(xs, zs, signs, index):
        src, coeff = permutations(xs, zs, signs, index)
        if index.ndim == 1:
            coeff[0] *= 2
        return src, coeff

    monkeypatch.setattr(kl, "_signed_permutations", doubled_first_generator)
    with pytest.raises(RuntimeError, match=r"^projector produced an amplitude of magnitude "):
        kl_check(builtin("code5"), enumerate_errors(5, 1))


def test_codewords_empty_generator_code():
    basis = scattered_codewords(StabilizerCode([], n=1))
    assert basis.shape == (2, 2)
    assert np.allclose(basis @ basis.T, np.eye(2))


def test_kl_empty_generator_code():
    # With no generators every state is a codeword, and every product of two
    # distinct errors moves one codeword onto another: C is the identity.
    report = kl_check(StabilizerCode((), 3), enumerate_errors(3, 1))
    assert (report.passed, report.rank, report.max_deviation) == (False, 10, 1.0)
    assert (report.c_matrix == np.eye(10)).all()


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
    # perfect(3) has n = 85: a limit below 2^85, or one that is no finite
    # number, refuses it with its own message before the float32 ceiling does.
    _refuse_to_build(monkeypatch)
    refusal = rf"n=85 needs {1 << 85} amplitudes .*the limit is {limit}$"
    with pytest.raises(CapExceededError, match=refusal):
        kl_check(perfect(3), iter(()), max_amplitudes=limit)



def _code5_on(n):
    return StabilizerCode([tensor(g, identity(n - 5)) for g in builtin("code5").generators])


@pytest.mark.parametrize(
    "make, n, limit",
    [(lambda: perfect(3), 85, 1 << 86), (lambda: _code5_on(25), 25, 1 << 25)],
    ids=["perfect3", "n25"],
)
def test_float32_ceiling_refuses_first(monkeypatch, make, n, limit):
    # A limit that admits the state vector does not lift the 2^24 amplitudes
    # within which float32 sums are exact.
    _refuse_to_build(monkeypatch)
    refusal = (
        rf"^kl check refused: n={n} needs {1 << n} amplitudes per state vector; "
        r"float32 sums are exact only up to 2\^24 \(n <= 24\)$"
    )
    with pytest.raises(CapExceededError, match=refusal):
        kl_check(make(), iter(()), max_amplitudes=limit)


def test_float32_ceiling_admits_n24(monkeypatch):
    _refuse_to_build(monkeypatch)
    with pytest.raises(AssertionError, match="past its limit"):
        kl_check(_code5_on(24), iter(()), max_amplitudes=1 << 24)

def test_amplitudes_stream_in_chunks(monkeypatch):
    # Each batch of cosets builds at most _CHUNK amplitudes and Gram products;
    # code8's weight-<=1 check is one batch with one product, and so is
    # Shor's [[9,1,3]] code's: its errors reach 20 of its 128 cosets,
    # and a batch holds 83.
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
    for code in (builtin("code8"), shor_code9()):
        builds.clear()
        products.clear()
        assert_exact(kl_check(code, enumerate_errors(code.n, 1)))
        assert len(builds) == 1
        assert len(products) == 1


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
    assert_exact(report)
    assert report.full_rank
    assert report.c_matrix.shape == (16, 16)
    assert np.array_equal(report.c_matrix, np.eye(16))


def test_kl_code8():
    report = kl_check(builtin("code8"), enumerate_errors(8, 1))
    assert_exact(report)
    assert report.full_rank and report.rank == 25
    assert np.allclose(np.diag(report.c_matrix), 1.0, atol=1e-12)


def test_kl_code13_at_the_default_limit():
    report = kl_check(builtin("code13"), enumerate_errors(13, 1))
    assert_exact(report)
    assert report.full_rank and report.rank == 40


def test_kl_hamming_class4_at_the_default_limit():
    # n = 16, k = 10: 2^10 x 2^10 Gram blocks, of which only the cells the
    # 2^16 basis indices reach are ever formed.
    report = kl_check(hamming_class(4), enumerate_errors(16, 1))
    assert_exact(report)
    assert report.full_rank and report.rank == 49


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


# Route 3 over the weight-<=1 errors: SHA-256 of c_matrix.tobytes(),
# repr(max_deviation) and rank.  Every sum the check makes is an integer,
# so these hold in any precision that keeps those sums exact.
@pytest.mark.parametrize(
    "make, digest, deviation, rank",
    [
        pytest.param(
            lambda: builtin("code5"),
            "286a39757f600aade898e0ad0d060da77a9924f1ab98d3360b5f86793142ee23", "0.0", 16,
            id="code5",
        ),
        pytest.param(
            lambda: builtin("code8"),
            "9d9b3ed2ab93a1c653da09a5099878d5ee1dca5e65cc16d374a10abfa45bf71a", "0.0", 25,
            id="code8",
        ),
        pytest.param(
            lambda: builtin("code13"),
            "f36e4ffe9826d9e84dbb21b80e0e3222d416970ad5762c4d0794a2bb21b30514", "0.0", 40,
            id="code13",
        ),
        pytest.param(
            shor_code9,
            "9009246e01b66f8b9e03c3a4b2c5935493235d052e406e7c9d1935b77396c2b0", "0.0", 22,
            id="shor9",
        ),
        pytest.param(
            lambda: hamming_class(4),
            "686e727c55dbeaafba7fca0797cdda9e7ed14606f4e83f65f7f27546825070e0", "0.0", 49,
            id="hamming4",
        ),
        pytest.param(
            lambda: StabilizerCode([parse_pauli("XXXX"), parse_pauli("ZZZZ")]),
            "fa2c0eae6beef30d3b47848d2719ab1a1ea51502043aa25c5d481dd215730af1", "1.0", 13,
            id="bad4",
        ),
        # k = 0 and m = 7: one codeword; I and the two Z errors share one
        # image, and the four X and Y errors another.
        pytest.param(
            lambda: StabilizerCode([parse_pauli("XX"), parse_pauli("ZZ")]),
            "6299d1c971480248c9aafdd42816d58d3527ca883e462bb0049d8c24d3398b9f", "0.0", 4,
            id="pair",
        ),
        # n = 10, a = 5: 32 cosets of a 32-element X-span, all kept and all
        # in one batch; C has one off-diagonal pair, and the check fails.
        pytest.param(
            lambda: random_valid_code(random.Random(8), 10, 5),
            "deaca38dea5b0c916e1d19120930005fdb5522d975069979b79ef14a1e9a6076", "1.0", 30,
            id="random10.5",
        ),
    ],
)
def test_kl_outputs_are_pinned(make, digest, deviation, rank):
    code = make()
    report = kl_check(code, enumerate_errors(code.n, 1))
    assert report.c_matrix.dtype == np.float64
    assert hashlib.sha256(report.c_matrix.tobytes()).hexdigest() == digest
    assert (repr(report.max_deviation), report.rank) == (deviation, rank)


@pytest.mark.parametrize("make", [lambda: builtin("code8"), shor_code9], ids=["code8", "shor9"])
def test_error_set_forms_give_equal_reports(make):
    # A tuple, a list and a one-shot generator of the same errors are one set.
    code = make()
    errors = enumerate_errors(code.n, 1)
    reports = [kl_check(code, form) for form in (errors, list(errors), (e for e in errors))]
    for report in reports:
        assert report.c_matrix.tobytes() == reports[0].c_matrix.tobytes()
        assert (report.max_deviation, report.rank) == (reports[0].max_deviation, reports[0].rank)


@pytest.mark.parametrize("one_shot", [False, True], ids=["tuple", "generator"])
@pytest.mark.parametrize(
    "errors, message",
    [
        ((), "need at least one error operator"),
        ((identity(7),), "error acts on 7 qubits, code has 8"),
        # The first offender is named.
        ((identity(8), identity(6), identity(7)), "error acts on 6 qubits, code has 8"),
    ],
    ids=["empty", "wrong-length", "first-offender"],
)
def test_error_set_refusals(errors, message, one_shot):
    with pytest.raises(ValueError) as excinfo:
        kl_check(builtin("code8"), (e for e in errors) if one_shot else errors)
    assert str(excinfo.value) == message


def test_refused_check_never_advances_errors():
    advanced = []

    def errors():
        advanced.append(True)
        yield from enumerate_errors(21, 1)

    given = errors()
    with pytest.raises(CapExceededError):
        kl_check(perfect(2), given)
    assert advanced == []
    # The generator was never started, so it still yields its first error.
    assert next(given) == identity(21)


def test_error_sets_are_told_apart():
    # Shor's code is degenerate, so C has off-diagonal entries and a
    # reordered error set reorders them.
    code = shor_code9()
    errors = enumerate_errors(9, 1)
    base = kl_check(code, errors)
    order = list(range(len(errors)))
    random.Random(47).shuffle(order)
    reordered = kl_check(code, tuple(errors[i] for i in order))
    assert np.array_equal(reordered.c_matrix, base.c_matrix[np.ix_(order, order)])
    assert not np.array_equal(reordered.c_matrix, base.c_matrix)
    assert (reordered.max_deviation, reordered.rank) == (0.0, 22)


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
    assert_exact(kl)
    assert not kl.full_rank
    report = verify_distance3(code, allow_degenerate=True)
    assert report.ok and report.degenerate and report.witness is None
    pad = "IIIII" if beside_code5 else ""
    pairs = [(format_pauli(e), format_pauli(f)) for e, f in report.degenerate_pairs]
    assert pairs == [(pad + a, pad + b) for a, b in (("XI", "IX"), ("YI", "IY"), ("ZI", "IZ"))]
    assert not verify_distance3(code).ok
