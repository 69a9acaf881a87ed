import random

import pytest

from qpaste.catalog import builtin, hamming_class
from qpaste.pasting import PaddedCode
from qpaste.pauli import (
    PauliOperator,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
)
from qpaste.stabilizer import (
    InvalidCodeError,
    StabilizerCode,
    contains,
    parameters,
    validate,
)

from helpers import (
    Syndrome,
    char_syndrome,
    random_pauli,
    reference_violations,
    same_group,
    syndrome,
)


def from_strings(*rows):
    return StabilizerCode([parse_pauli(r) for r in rows])


def test_constructor_checks():
    with pytest.raises(ValueError, match="sign"):
        StabilizerCode([PauliOperator(2, 1, 0, -1)])
    with pytest.raises(ValueError, match="expected"):
        StabilizerCode([parse_pauli("XX"), parse_pauli("X")])
    with pytest.raises(ValueError, match="qubit count required"):
        StabilizerCode([])
    empty = StabilizerCode([], n=3)
    assert empty.a == 0 and validate(empty).ok


@pytest.mark.parametrize(
    "cls, empty, no_qubits, width, sign",
    [
        (
            StabilizerCode,
            "qubit count required for an empty generator list",
            "a generator list needs at least one qubit",
            "generator 2 acts on 3 qubits, expected 2",
            "generator 2 must have sign +1",
        ),
        (
            PaddedCode,
            "qubit count required for an empty row list",
            "a row list needs at least one qubit",
            "row 2 acts on 3 qubits, expected 2",
            "row 2 must have sign +1",
        ),
    ],
)
def test_constructor_messages(cls, empty, no_qubits, width, sign):
    cases = [
        ([], None, empty),
        ([], 0, no_qubits),
        ([], -1, no_qubits),
        ([parse_pauli("XX"), parse_pauli("XYZ")], None, width),
        ([parse_pauli("XX"), PauliOperator(2, 0, 3, -1)], None, sign),
    ]
    for rows, n, message in cases:
        with pytest.raises(ValueError) as caught:
            cls(rows, n)
        assert str(caught.value) == message


def test_validate_code13_passes():
    assert validate(builtin("code13")).ok


def test_validate_anticommuting_pair():
    report = validate(from_strings("X", "Z"))
    assert not report.ok
    kinds = {(v.kind, v.rows) for v in report.violations}
    assert ("anticommute", (1, 2)) in kinds


def test_validate_duplicate_rows():
    report = validate(from_strings("XX", "XX"))
    assert not report.ok
    v = report.violations[0]
    assert v.kind == "rank" and v.rows == (2,)
    assert "rank 1 < 2" in v.detail


def test_validate_odd_square():
    report = validate(from_strings("Y"))
    assert not report.ok
    assert report.violations[0].kind == "square"


def _invalid_generator_set(rng: random.Random, n: int, a: int) -> StabilizerCode:
    """Random rows, sparse X-only and Z-only rows (few anticommuting pairs,
    no Y) or single-qubit factors, with products of earlier rows mixed in."""
    mode = rng.randrange(3)
    rows: list[PauliOperator] = []
    for _ in range(a):
        if rows and rng.random() < 0.15:
            p, q = rng.choice(rows), rng.choice(rows)
            rows.append(PauliOperator(n, p.x ^ q.x, p.z ^ q.z))
        elif mode == 0:
            rows.append(PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)))
        elif mode == 1:
            bits = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            x_only = rng.random() < 0.5
            rows.append(PauliOperator(n, bits, 0) if x_only else PauliOperator(n, 0, bits))
        else:
            bit = 1 << rng.randrange(n)
            x, z = rng.choice(((1, 0), (1, 1), (0, 1)))
            rows.append(PauliOperator(n, bit * x, bit * z))
    return StabilizerCode(rows, n)


@pytest.mark.parametrize("seed", range(40))
def test_validate_matches_per_pair_reference(seed):
    rng = random.Random(seed)
    n, a = (130, 70) if seed == 0 else (rng.randint(1, 130), rng.randint(1, 70))
    code = _invalid_generator_set(rng, n, a)
    report = validate(code)
    assert report.violations == reference_violations(code)
    assert report.ok == (not report.violations)


def test_syndrome_identity_is_zero():
    code = builtin("code13")
    s = syndrome(code, identity(13))
    assert str(s) == "000000" and s.is_zero


def test_syndrome_examples_code13():
    code = builtin("code13")
    x1 = parse_pauli("X" + "I" * 12)
    x9 = parse_pauli("I" * 8 + "X" + "I" * 4)
    assert str(syndrome(code, x1)) == "010000"
    assert str(syndrome(code, x9)) == "000101"


def test_syndrome_full_weight1_table_vs_char_oracle():
    # Independent oracle: count character clashes per generator.
    code = builtin("code13")
    rows = [format_pauli(g) for g in code.generators]
    for pos in range(13):
        for factor in "XYZ":
            err = "I" * pos + factor + "I" * (12 - pos)
            assert str(syndrome(code, parse_pauli(err))) == char_syndrome(rows, err)


def test_syndrome_linearity():
    code = builtin("code8")
    rng = random.Random(31)
    for _ in range(100):
        e = PauliOperator(8, rng.getrandbits(8), rng.getrandbits(8))
        f = PauliOperator(8, rng.getrandbits(8), rng.getrandbits(8))
        assert syndrome(code, multiply(e, f)) == syndrome(code, e) ^ syndrome(code, f)


def test_syndrome_prefix_convention():
    # Codes whose first two rows are all-X and all-Z tag the error type.
    for code in (builtin("code8"), hamming_class(4)):
        n = code.n
        for i in range(n):
            x_err = PauliOperator(n, 1 << i, 0)
            z_err = PauliOperator(n, 0, 1 << i)
            y_err = PauliOperator(n, 1 << i, 1 << i)
            assert syndrome(code, x_err).bits[:2] == (0, 1)
            assert syndrome(code, z_err).bits[:2] == (1, 0)
            assert syndrome(code, y_err).bits[:2] == (1, 1)


def test_syndrome_length_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        syndrome(builtin("code5"), identity(4))
    with pytest.raises(ValueError, match="syndrome lengths differ"):
        Syndrome((0, 1)) ^ Syndrome((1,))


def test_contains_group_products():
    code = builtin("code13")
    m1, m2 = code.generators[0], code.generators[1]
    prod = multiply(m1, m2)
    assert contains(code, prod)
    flipped = PauliOperator(prod.n, prod.x, prod.z, -prod.sign)
    assert not contains(code, flipped)
    for g in code.generators:
        assert contains(code, g)
        assert syndrome(code, g).is_zero


def test_contains_rejects_nonmembers():
    code = builtin("code13")
    assert not contains(code, parse_pauli("X" + "I" * 12))
    assert contains(builtin("code5"), parse_pauli("XXZIZ"))
    with pytest.raises(ValueError, match="operator acts on 4 qubits, code has 5"):
        contains(builtin("code5"), identity(4))


def test_contains_implies_zero_syndrome():
    # Every product of generators is a member with zero syndrome; the same
    # bits with flipped sign are not members.
    rng = random.Random(37)
    code = builtin("code8")
    for _ in range(100):
        member = identity(8)
        picks = [g for g in code.generators if rng.random() < 0.5]
        rng.shuffle(picks)
        for g in picks:
            member = multiply(member, g)
        assert contains(code, member)
        assert syndrome(code, member).is_zero
        if member != identity(8):
            flipped = PauliOperator(8, member.x, member.z, -member.sign)
            assert not contains(code, flipped)


def test_contains_rejects_random_outsiders():
    rng = random.Random(41)
    code = builtin("code8")
    for _ in range(200):
        p = random_pauli(rng, 8)
        if not syndrome(code, p).is_zero:
            assert not contains(code, p)


def test_parameters():
    p13 = parameters(builtin("code13"))
    assert (p13.n, p13.a, p13.k) == (13, 6, 7)
    p5 = parameters(builtin("code5"))
    assert (p5.n, p5.a, p5.k) == (5, 4, 1)
    p8 = parameters(builtin("code8"))
    assert (p8.n, p8.a, p8.k) == (8, 5, 3)


def test_parameters_requires_valid():
    with pytest.raises(InvalidCodeError):
        parameters(from_strings("X", "Z"))


def test_bit_exact_equality():
    a = from_strings("XX", "ZZ")
    b = from_strings("XX", "ZZ")
    c = from_strings("ZZ", "XX")
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_group_equality():
    code = builtin("code8")
    g = list(code.generators)
    recombined = StabilizerCode([multiply(g[0], g[1]), g[1], g[2], g[3], g[4]])
    assert code != recombined
    assert same_group(code, recombined)
    assert not same_group(code, builtin("code5"))
    reordered = StabilizerCode([g[1], g[0], g[2], g[3], g[4]])
    assert same_group(code, reordered)
