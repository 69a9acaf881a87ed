"""kl_check and its codeword basis against the dense per-pair references in helpers."""

import random

import numpy as np
import pytest

from qpaste import gf2, kl
from qpaste.catalog import builtin
from qpaste.kl import _sparse_codewords, kl_check
from qpaste.pauli import PauliOperator, format_pauli, identity, parse_pauli
from qpaste.stabilizer import StabilizerCode
from qpaste.verification import enumerate_errors

from helpers import (
    anticommutes,
    degenerate_code6,
    dense,
    direct_sum,
    random_valid_code,
    reference_codewords,
    reference_kl_check,
    scattered_codewords,
    shor_code9,
)


def _xx_zz(beside_code5: bool) -> StabilizerCode:
    pair = StabilizerCode([parse_pauli("XX"), parse_pauli("ZZ")])
    return direct_sum(builtin("code5"), pair) if beside_code5 else pair


def _random_codes() -> list[tuple[str, StabilizerCode]]:
    rng = random.Random(4401)
    codes = []
    for i in range(30):
        n = rng.randint(1, 8)
        a = rng.randint(1, n)
        codes.append((f"random{i}-n{n}-a{a}", random_valid_code(rng, n, a)))
    for a in (1, 2):
        codes.append((f"large-k-n8-a{a}", random_valid_code(rng, 8, a)))
    return codes


CODES = [
    ("code5", builtin("code5")),
    ("code8", builtin("code8")),
    ("degenerate_code6", degenerate_code6()),
    ("XX,ZZ", _xx_zz(False)),
    ("XX,ZZ+code5", _xx_zz(True)),
    ("shor9", shor_code9()),
    ("XXXX,ZZZZ", StabilizerCode([parse_pauli("XXXX"), parse_pauli("ZZZZ")])),
    ("no-generators-n3", StabilizerCode([], n=3)),
    *_random_codes(),
]


def assert_same_report(report, expected):
    assert report.passed == expected.passed
    assert report.rank == expected.rank
    assert report.full_rank == expected.full_rank
    assert report.c_matrix.shape == expected.c_matrix.shape
    assert np.allclose(report.c_matrix, expected.c_matrix, rtol=0, atol=1e-12)
    assert abs(report.max_deviation - expected.max_deviation) <= 1e-12


@pytest.mark.parametrize("name, code", CODES, ids=[name for name, _ in CODES])
def test_codewords_match_reference(name, code):
    assert np.array_equal(scattered_codewords(code), reference_codewords(code))


@pytest.mark.parametrize("name, code", CODES, ids=[name for name, _ in CODES])
def test_kl_check_matches_reference(name, code):
    errors = enumerate_errors(code.n, 1)
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors))


def test_failing_codes_are_covered():
    verdicts = {kl_check(code, enumerate_errors(code.n, 1)).passed for _, code in CODES}
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["code5", "XX,ZZ+code5", "large-k-n8-a2"])
def test_kl_check_matches_reference_on_signed_weight2_errors(name):
    # More errors than one bincount holds per row of blocks, in shuffled
    # order with random signs.
    code = dict(CODES)[name]
    rng = random.Random(name)
    errors = [
        PauliOperator(e.n, e.x, e.z, rng.choice((1, -1)))
        for e in enumerate_errors(code.n, 2)
    ]
    rng.shuffle(errors)
    errors = errors[:60]
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors))


def _low_x_rank_code(rng: random.Random, n: int, a: int, x_rank: int) -> StabilizerCode:
    """A random code of x_rank X-type generators and a - x_rank Z-type ones.

    Its X-span has rank x_rank, so the 2^n indices fall into many small
    cosets, and every coset that breaks a Z-type parity is discarded.
    """
    rows: list[PauliOperator] = []
    independent = gf2.Eliminator(2 * n)
    while len(rows) < a:
        bits = rng.getrandbits(n)
        p = PauliOperator(n, bits, 0, 1) if len(rows) < x_rank else PauliOperator(n, 0, bits, 1)
        if any(anticommutes(p, q) for q in rows) or not independent.add(p.x | (p.z << n)):
            continue
        rows.append(p)
    return StabilizerCode(rows, n)


def _weight2_codes() -> list[tuple[str, StabilizerCode]]:
    # The reference's cost grows as 4^k, so n = 7 codes keep k <= 4.
    rng = random.Random(6602)
    codes = [("no-generators-n4", StabilizerCode([], n=4))]
    for n in range(2, 8):
        low = 3 if n == 7 else 1
        for i in range(4):
            a = rng.randint(low, n)
            codes.append((f"random{i}-n{n}-a{a}", random_valid_code(rng, n, a)))
        for x_rank in (0, 0, 1, 1):
            a = rng.randint(max(low, x_rank), n)
            codes.append((f"x{x_rank}-n{n}-a{a}", _low_x_rank_code(rng, n, a, x_rank)))
    return codes


WEIGHT2_CODES = _weight2_codes()


def _meets_a_discarded_image(code: StabilizerCode, errors) -> bool:
    """Whether two distinct errors with x_a ^ x_b in the X-span map a coset
    that some error keeps onto a discarded coset."""
    w = reference_codewords(code)
    kept = np.abs(w).sum(axis=0) > 0
    span = set(_sparse_codewords(code, 1 << code.n)[3].tolist())
    for c in range(1 << code.n):
        if not any(kept[c ^ e.x] for e in errors):
            continue
        for i, a in enumerate(errors):
            if not kept[c ^ a.x] and any(a.x ^ b.x in span for b in errors[i + 1 :]):
                return True
    return False


def _discarding_codes() -> list[tuple[str, StabilizerCode, int]]:
    rng = random.Random(6604)
    return [
        ("shor9", shor_code9(), 1),
        ("code8", builtin("code8"), 1),
        ("XX,ZZ+code5", _xx_zz(True), 1),
        ("degenerate_code6", degenerate_code6(), 2),
        ("x1-n6-a4", _low_x_rank_code(rng, 6, 4, 1), 2),
        ("x2-n7-a5", _low_x_rank_code(rng, 7, 5, 2), 1),
    ]


DISCARDING_CODES = _discarding_codes()


@pytest.mark.parametrize(
    "name, code, weight", DISCARDING_CODES, ids=[name for name, _, _ in DISCARDING_CODES]
)
def test_same_image_pairs_on_discarded_cosets_match_reference(name, code, weight):
    # kl_check sums every product of a same-image pair as its diagonal sum and
    # takes its extremes over kept images alone; on a discarded image that
    # pair's products are exactly 0 and must count nowhere.
    errors = enumerate_errors(code.n, weight)
    assert _meets_a_discarded_image(code, errors)
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors))


@pytest.mark.parametrize("name, code", WEIGHT2_CODES, ids=[name for name, _ in WEIGHT2_CODES])
def test_kl_check_matches_reference_on_weight2_errors(name, code):
    # At least as many errors as basis indices: one coset per chunk, and the
    # low X-rank codes discard most of their cosets.
    errors = enumerate_errors(code.n, 2)
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors))


ONE_COSET_CASES = [
    *((f"weight2-{name}", code, 2) for name, code in WEIGHT2_CODES),
    *((f"discarding-{name}", code, weight) for name, code, weight in DISCARDING_CODES),
]


@pytest.mark.parametrize(
    "name, code, weight", ONE_COSET_CASES, ids=[name for name, _, _ in ONE_COSET_CASES]
)
def test_one_coset_batches_match_reference(monkeypatch, name, code, weight):
    # One coset per batch, and the low X-rank codes' errors reach only some
    # of their cosets: each reached coset must add its products once.
    monkeypatch.setattr(kl, "_CHUNK", 1)
    errors = enumerate_errors(code.n, weight)
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors))


@pytest.mark.parametrize("weight", [0.0, 0.25, 4.0])
@pytest.mark.parametrize("errors", ["weight1+z", "identities"])
def test_every_product_reaches_the_report(monkeypatch, errors, weight):
    # No generators on 3 qubits: eight single-index cosets, in index order,
    # all in one product.  Scaling coset p's slice of that product by
    # `weight` weights index p in every Gram block, which the dense sums
    # below do directly.  With ten identities every cell is diagonal, so
    # nothing off the diagonal hides a lost extreme.
    code = StabilizerCode([], n=3)
    if errors == "identities":
        errors = [identity(3)] * 10
    else:
        errors = [*enumerate_errors(3, 1)]
        errors += [PauliOperator(3, 0, z, 1) for z in (0b011, 0b101, 0b110, 0b111)]
    images = [dense(format_pauli(e)) for e in errors]
    matmul = np.matmul
    for p in range(8):
        calls = []

        def weighted_matmul(*args, **kwargs):
            out = matmul(*args, **kwargs)
            calls.append(out.shape)
            out[p] *= weight
            return out

        monkeypatch.setattr(np, "matmul", weighted_matmul)
        report = kl_check(code, errors)
        monkeypatch.undo()
        assert calls == [(8, len(errors), len(errors))]
        weights = np.ones(8)
        weights[p] = weight
        grams = [[ea.T @ np.diag(weights) @ eb for eb in images] for ea in images]
        c_matrix = np.array([[np.trace(g) / 8 for g in row] for row in grams])
        deviation = max(
            np.abs(g - c * np.eye(8)).max()
            for row, c_row in zip(grams, c_matrix)
            for g, c in zip(row, c_row)
        )
        assert np.allclose(report.c_matrix, c_matrix, rtol=0, atol=1e-12)
        assert abs(report.max_deviation - deviation) <= 1e-12
        # This C is not 0/+-1: the eigen-solve's rank matches the SVD's.
        assert report.rank == np.linalg.matrix_rank(c_matrix)
