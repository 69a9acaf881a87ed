"""Property tests: the three verification routes agree on random small codes.

Each drawn code has n <= 7 and 1 <= a <= n.  Random codes mostly fail to
correct one error, so the strategy also draws degenerate codes (a random
code with one qubit repeated, or beside the XX, ZZ pair) and qubit-shuffled
passing codes, degenerate and not.  The quantum Reed-Muller codes add
distance-4 fixtures, where the distance search scans every weight-3 candidate.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qpaste.catalog import builtin
from qpaste.kl import kl_check
from qpaste.pauli import identity, parse_pauli, tensor
from qpaste.stabilizer import StabilizerCode, validate
from qpaste.verification import distance, enumerate_errors, verify_distance3

from helpers import (
    degenerate_code6,
    random_valid_code,
    reed_muller_code,
    reference_distance,
    repeat_qubit,
    shuffled_qubits,
)

XX_ZZ = StabilizerCode([parse_pauli("XX"), parse_pauli("ZZ")])


def _beside(left: StabilizerCode, right: StabilizerCode) -> StabilizerCode:
    rows = [tensor(g, identity(right.n)) for g in left.generators]
    rows += [tensor(identity(left.n), g) for g in right.generators]
    return StabilizerCode(rows, left.n + right.n)


PASSING = (builtin("code5"), degenerate_code6(), XX_ZZ, _beside(builtin("code5"), XX_ZZ))


@st.composite
def small_codes(draw) -> StabilizerCode:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "repeat", "pair", "passing")))
    n = draw(st.integers(1, 7))
    a = draw(st.integers(1, n))
    if kind == "repeat" and n >= 2:
        return repeat_qubit(random_valid_code(rng, n - 1, a - 1), rng.randrange(n - 1))
    if kind == "pair" and n >= 3 and a >= 2:
        return _beside(random_valid_code(rng, n - 2, a - 2), XX_ZZ)
    if kind == "passing":
        return shuffled_qubits(rng, draw(st.sampled_from(PASSING)))
    return random_valid_code(rng, n, a)


def assert_routes_agree(code: StabilizerCode) -> None:
    kl = kl_check(code, enumerate_errors(code.n, 1))
    d3 = verify_distance3(code, allow_degenerate=True)
    no_short_logical = distance(code, min(2, code.n)) is None
    assert kl.passed == d3.ok == no_short_logical
    if kl.passed:
        # One rank of C per class of errors equal up to +-S, i.e. per distinct syndrome.
        assert kl.rank == d3.distinct_count
    assert verify_distance3(code).ok == (kl.passed and kl.full_rank)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_codes())
def test_three_routes_agree(code):
    assert 1 <= code.a <= code.n <= 7
    assert_routes_agree(code)


def test_three_routes_agree_on_code13():
    # The paper's [[13,7,3]] code, within the KL route's default limit.
    code = builtin("code13")
    assert_routes_agree(code)
    assert verify_distance3(code).ok


@pytest.mark.parametrize("m", [4, 5, 6])
def test_reed_muller_codes_have_distance_four(m):
    # [[16,6,4]], [[32,20,4]], [[64,50,4]]: a full weight-3 scan finds nothing.
    code = reed_muller_code(m)
    assert (code.n, code.n - code.a) == (1 << m, (1 << m) - 2 * m - 2)
    assert validate(code).ok
    assert distance(code, 3) is None
    assert distance(code, 4) == 4


@pytest.mark.parametrize("m", [4, 5])
def test_reed_muller_distance_matches_reference(m):
    code = reed_muller_code(m)
    assert reference_distance(code, 4) == distance(code, 4) == 4


def test_three_routes_agree_on_reed_muller16():
    # [[16,6,4]], within the KL route's default limit.
    code = reed_muller_code(4)
    assert_routes_agree(code)
    assert verify_distance3(code).ok
