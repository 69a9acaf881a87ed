"""Differential tests: the flat weight-<=1 syndrome keys against syndrome() per error."""

import random

import pytest

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.pauli import PauliOperator
from qpaste.stabilizer import StabilizerCode, _transpose
from qpaste.verification import distance, enumerate_errors, verify_distance3

from helpers import (
    degenerate_code6,
    random_mixer,
    random_valid_code,
    reference_distance,
    reference_syndrome_table,
    reference_verify_distance3,
    shor_code9,
    syndrome,
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


def _per_qubit(keys: list[int]) -> list[tuple[int, int, int]]:
    return [tuple(keys[i : i + 3]) for i in range(1, len(keys), 3)]


def test_table_matches_syndrome(code):
    for variant in (code, _with_last_row_dropped(code)):
        assert _per_qubit(variant._syndrome_keys) == reference_syndrome_table(variant)


def test_table_is_computed_once(code):
    assert code._syndrome_keys is code._syndrome_keys


def _reference_keys(code: StabilizerCode) -> list[int]:
    return [syndrome(code, e).as_int() for e in enumerate_errors(code.n, 1)]


def test_flat_keys_match_syndrome(code):
    for variant in (code, _with_last_row_dropped(code)):
        assert variant._syndrome_keys == _reference_keys(variant)


def _reference_transpose(rows: list[int], width: int) -> list[int]:
    return [sum(((row >> i) & 1) << j for j, row in enumerate(rows)) for i in range(width)]


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 31, 64, 65, 130])
def test_transpose_matches_reference(width):
    rng = random.Random(width)
    ones = (1 << width) - 1
    for count in range(71):
        rows = [rng.getrandbits(width) for _ in range(count)]
        assert _transpose(rows, width) == _reference_transpose(rows, width)
        # All-ones rows fill every lane bit: nothing may carry into a neighbour.
        assert _transpose([ones] * count, width) == [(1 << count) - 1] * width


@pytest.mark.parametrize("a", [0, 1, 8, 63, 64, 65, 70])
def test_flat_keys_for_any_row_count(a):
    # Keys need only the rows' shape, so unchecked random rows reach past the
    # 64 rows one lane holds.
    rng = random.Random(a)
    for n in (1, 5, 33):
        rows = [PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(a)]
        code = StabilizerCode(rows, n)
        assert code._syndrome_keys == _reference_keys(code)
        assert _per_qubit(code._syndrome_keys) == reference_syndrome_table(code)


@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_verify_distance3_matches_reference(code, allow_degenerate):
    for variant in (code, _with_last_row_dropped(code)):
        got = verify_distance3(variant, allow_degenerate=allow_degenerate)
        assert got == reference_verify_distance3(variant, allow_degenerate)


def test_distance_matches_reference(code):
    for variant in (code, _with_last_row_dropped(code)):
        w = min(3, variant.n)
        assert distance(variant, w) == reference_distance(variant, w)
