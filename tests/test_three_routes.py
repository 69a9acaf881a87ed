"""Property tests: the three verification routes agree on random small codes.

Each drawn code has n <= 10 and 1 <= a <= n.  Random codes mostly fail to
correct one error, so the strategy also draws degenerate codes (a random
code with one qubit repeated, or beside the XX, ZZ pair) and qubit-shuffled
passing codes, degenerate and not.  Seeded shuffles of code13 and
hamming_class(4) reach n = 13 and 16.  The quantum Reed-Muller codes add
distance-4 fixtures, where the distance search scans every weight-3 candidate.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qpaste.catalog import builtin, hamming_class
from qpaste.kl import kl_check
from qpaste.pauli import PauliOperator, parse_pauli
from qpaste.stabilizer import StabilizerCode, validate
from qpaste.verification import distance, enumerate_errors, verify_distance3

from helpers import (
    ReferenceEliminator,
    degenerate_code6,
    direct_sum,
    random_valid_code,
    reed_muller_code,
    reference_distance,
    repeat_qubit,
    shor_code9,
    shuffled_qubits,
    syndrome,
)

XX_ZZ = StabilizerCode([parse_pauli("XX"), parse_pauli("ZZ")])


PASSING = (
    builtin("code5"),
    degenerate_code6(),
    XX_ZZ,
    direct_sum(builtin("code5"), XX_ZZ),
    shor_code9(),
    hamming_class(3),
    repeat_qubit(builtin("code8"), 0),
)


@st.composite
def small_codes(draw) -> StabilizerCode:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "repeat", "pair", "passing")))
    n = draw(st.integers(1, 10))
    a = draw(st.integers(1, n))
    if kind == "repeat" and n >= 2:
        return repeat_qubit(random_valid_code(rng, n - 1, a - 1), rng.randrange(n - 1))
    if kind == "pair" and n >= 3 and a >= 2:
        return direct_sum(random_valid_code(rng, n - 2, a - 2), XX_ZZ)
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
    assert 1 <= code.a <= code.n <= 10
    assert_routes_agree(code)


def test_three_routes_agree_on_code13():
    # The paper's [[13,7,3]] code, within the KL route's default limit.
    code = builtin("code13")
    assert_routes_agree(code)
    assert verify_distance3(code).ok


@pytest.mark.parametrize(
    "code", [builtin("code13"), hamming_class(4)], ids=["code13", "hamming_class(4)"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_routes_agree_on_shuffled_larger_codes(code, seed):
    # n = 13 and 16, within the KL route's default limit.
    shuffled = shuffled_qubits(random.Random(seed), code)
    assert shuffled.generators != code.generators
    assert_routes_agree(shuffled)
    assert verify_distance3(shuffled).ok


def assert_low_weight_distance_matches_collisions(code: StabilizerCode) -> None:
    """Route 2 below weight 3 against route 1's collisions: a logical of weight
    1 is a weight-1 error with the zero syndrome, one of weight 2 the product
    of two weight-1 errors on different qubits that share a syndrome, each
    outside the span of the generators' (x | z) rows."""
    n = code.n
    span = ReferenceEliminator(2 * n, [g.x | (g.z << n) for g in code.generators])
    errors = [
        (q, (x << q) | (z << (q + n)), syndrome(code, PauliOperator(n, x << q, z << q)).as_int())
        for q in range(n)
        for x, z in ((1, 0), (1, 1), (0, 1))
    ]
    weight1 = any(s == 0 and span.solve(bits) is None for _, bits, s in errors)
    assert (distance(code, 1) == 1) == weight1
    if n >= 2:
        weight2 = not weight1 and any(
            q != r and s == t and span.solve(e ^ f) is None
            for (q, e, s), (r, f, t) in combinations(errors, 2)
        )
        assert (distance(code, 2) == 2) == weight2
    if len({0} | {s for _, _, s in errors}) == 3 * n + 1:
        assert distance(code, min(2, n)) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_codes())
def test_low_weight_distance_matches_collisions(code):
    assert_low_weight_distance_matches_collisions(code)


@pytest.mark.parametrize(
    "code",
    list(PASSING)
    + [
        shuffled_qubits(random.Random(seed), code)
        for code in (builtin("code13"), hamming_class(4))
        for seed in (0, 1, 2)
    ],
)
def test_low_weight_distance_matches_collisions_on_fixed_codes(code):
    assert_low_weight_distance_matches_collisions(code)


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
