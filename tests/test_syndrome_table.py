"""Differential tests: the flat weight-<=1 syndrome keys against syndrome() per error."""

import pickle
import random
from array import array

import pytest

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.pauli import PauliOperator
from qpaste.stabilizer import StabilizerCode
from qpaste.verification import distance, enumerate_errors, verify_distance3

from helpers import (
    degenerate_code6,
    random_mixer,
    random_valid_code,
    reference_distance,
    reference_syndrome_table,
    reference_verify_distance3,
    repeat_qubit,
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
        assert list(variant._syndrome_keys) == _reference_keys(variant)


@pytest.mark.parametrize("a", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70])
def test_flat_keys_for_any_row_count(a):
    # Keys need only the rows' shape, so unchecked random rows reach past the
    # 64 rows one lane holds; row counts off a multiple of 8 end a lane's
    # bytes mid-way, and widths off a multiple of 8 end a row's bytes mid-way.
    rng = random.Random(a)
    for n in (1, 5, 8, 9, 33, 1365):
        codes = [
            StabilizerCode(
                [PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(a)], n
            )
        ]
        if a >= 63:
            # All-ones rows fill every bit of a lane: nothing may carry into a neighbour.
            ones = (1 << n) - 1
            codes.append(StabilizerCode([PauliOperator(n, ones, ones)] * a, n))
            full = (1 << a) - 1
            assert list(codes[-1]._syndrome_keys) == [0] + [full, 0, full] * n
        for code in codes:
            assert list(code._syndrome_keys) == _reference_keys(code)
            assert _per_qubit(code._syndrome_keys) == reference_syndrome_table(code)


@pytest.mark.parametrize("a", [0, 1, 8, 63, 64])
def test_keys_are_one_64_bit_array_up_to_64_rows(a):
    rng = random.Random(a)
    rows = [PauliOperator(9, rng.getrandbits(9), rng.getrandbits(9)) for _ in range(a)]
    keys = StabilizerCode(rows, 9)._syndrome_keys
    assert type(keys) is array and keys.typecode == "Q" and keys.itemsize == 8
    assert len(keys) == 3 * 9 + 1


def test_keys_survive_a_pickle_round_trip():
    for code in (perfect(3), _with_last_row_dropped(perfect(3))):
        keys = code._syndrome_keys
        copy = pickle.loads(pickle.dumps(code))
        assert copy == code and copy._syndrome_keys == keys
        assert verify_distance3(copy) == verify_distance3(code)


def test_failing_perfect5_variants_name_the_same_witness():
    # A dropped row (a = 11) collides at the 771st distinct key, before most
    # keys are read; a repeated qubit (a = 13) only near the end.
    code = perfect(5, j_max=5)

    def z(n, qubit):
        return PauliOperator(n, 0, 1 << qubit - 1)

    for variant, witness, distinct in (
        (_with_last_row_dropped(code), (z(1365, 1), z(1365, 257)), 771),
        (repeat_qubit(code, 700), (z(1366, 701), z(1366, 1366)), 4098),
    ):
        report = verify_distance3(variant)
        assert report == reference_verify_distance3(variant, False)
        assert not report.ok and report.witness == witness
        assert report.distinct_count == distinct


@pytest.mark.parametrize("allow_degenerate", [False, True])
def test_verify_distance3_matches_reference(code, allow_degenerate):
    for variant in (code, _with_last_row_dropped(code)):
        got = verify_distance3(variant, allow_degenerate=allow_degenerate)
        assert got == reference_verify_distance3(variant, allow_degenerate)


def test_distance_matches_reference(code):
    for variant in (code, _with_last_row_dropped(code)):
        w = min(3, variant.n)
        assert distance(variant, w) == reference_distance(variant, w)
