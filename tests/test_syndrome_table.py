"""Differential tests: the column syndrome table against syndrome() per error."""

import random

import pytest

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.stabilizer import StabilizerCode
from qpaste.verification import distance, verify_distance3

from helpers import (
    degenerate_code6,
    random_mixer,
    random_valid_code,
    reference_distance,
    reference_syndrome_table,
    reference_verify_distance3,
    shor_code9,
)


def _random_code(seed: int) -> StabilizerCode:
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    return random_valid_code(rng, n, rng.randint(1, n))


CASES = {
    **{name: (lambda name=name: builtin(name)) for name in ("code5", "code8", "code13")},
    **{f"perfect{j}": (lambda j=j: perfect(j)) for j in range(1, 5)},
    **{
        f"hamming{m}": (lambda m=m: hamming_class(m, random_mixer(random.Random(m), m)))
        for m in range(4, 9)
    },
    "degenerate6": degenerate_code6,
    "shor9": shor_code9,
    **{f"random{seed}": (lambda seed=seed: _random_code(seed)) for seed in range(30)},
}


def _with_last_row_dropped(code: StabilizerCode) -> StabilizerCode:
    return StabilizerCode(code.generators[:-1], code.n)


@pytest.fixture(params=sorted(CASES))
def code(request):
    return CASES[request.param]()


def test_table_matches_syndrome(code):
    for variant in (code, _with_last_row_dropped(code)):
        assert list(variant.syndrome_table) == reference_syndrome_table(variant)


def test_table_is_computed_once(code):
    assert code.syndrome_table is code.syndrome_table


@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_verify_distance3_matches_reference(code, allow_degenerate):
    for variant in (code, _with_last_row_dropped(code)):
        got = verify_distance3(variant, allow_degenerate=allow_degenerate)
        assert got == reference_verify_distance3(variant, allow_degenerate)


def test_distance_matches_reference(code):
    for variant in (code, _with_last_row_dropped(code)):
        w = min(3, variant.n)
        assert distance(variant, w) == reference_distance(variant, w)
