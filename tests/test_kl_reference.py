"""kl_check and codewords against the dense per-pair references in helpers."""

import random

import numpy as np
import pytest

from qpaste.catalog import builtin
from qpaste.kl import codewords, kl_check
from qpaste.pauli import PauliOperator, identity, parse_pauli, tensor
from qpaste.stabilizer import StabilizerCode
from qpaste.verification import enumerate_errors

from helpers import (
    degenerate_code6,
    random_valid_code,
    reference_codewords,
    reference_kl_check,
    shor_code9,
)


def _xx_zz(beside_code5: bool) -> StabilizerCode:
    pair = [parse_pauli("XX"), parse_pauli("ZZ")]
    if not beside_code5:
        return StabilizerCode(pair)
    rows = [tensor(g, identity(2)) for g in builtin("code5").generators]
    rows += [tensor(identity(5), g) for g in pair]
    return StabilizerCode(rows)


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
    assert np.array_equal(codewords(code).basis, reference_codewords(code))


@pytest.mark.parametrize("name, code", CODES, ids=[name for name, _ in CODES])
def test_kl_check_matches_reference(name, code):
    errors = enumerate_errors(code.n, 1)
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors.members))


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
        for e in enumerate_errors(code.n, 2).members
    ]
    rng.shuffle(errors)
    errors = errors[:60]
    assert_same_report(kl_check(code, errors), reference_kl_check(code, errors))
