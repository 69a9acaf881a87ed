import random

import numpy as np
import pytest

from qpaste.pauli import (
    PauliOperator,
    PauliParseError,
    adjoint,
    commutes,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
    square_sign,
    tensor,
    weight,
    y_count,
)

from helpers import dense

SINGLES = ["I", "X", "Y", "Z"]


def test_parse_examples():
    p = parse_pauli("XXZIZ")
    assert (p.n, p.x, p.z, p.sign) == (5, 0b00011, 0b10100, 1)
    q = parse_pauli("IIIII")
    assert (q.n, q.x, q.z, q.sign) == (5, 0, 0, 1)
    r = parse_pauli("XYZ")
    assert (r.x, r.z) == (0b011, 0b110)


def test_parse_sign_prefix():
    assert parse_pauli("+XYZ").sign == 1
    assert parse_pauli("-Y").sign == -1
    assert parse_pauli("−Y").sign == -1


def test_parse_errors():
    with pytest.raises(PauliParseError, match="position 3"):
        parse_pauli("XXQZ")
    with pytest.raises(PauliParseError, match="empty"):
        parse_pauli("")
    with pytest.raises(PauliParseError, match="empty"):
        parse_pauli("-")


@pytest.mark.parametrize(
    "text, position",
    [("X_X", 2), (" XZ", 1), ("XZ\n", 3), ("Xb0", 2), ("X\u0661", 2), ("IIIIIIII0", 9)],
)
def test_parse_rejects_what_int_would_accept(text, position):
    with pytest.raises(PauliParseError, match=f"position {position}$"):
        parse_pauli(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("X\udcffZ", "invalid character '\\udcff' at position 2"),
        ("XÄZ", "invalid character 'Ä' at position 2"),
        ("X−Z", "invalid character '−' at position 2"),
        ("−XÄ", "invalid character 'Ä' at position 2"),
    ],
)
def test_parse_names_the_first_non_ascii_character(text, message):
    with pytest.raises(PauliParseError) as info:
        parse_pauli(text)
    assert str(info.value) == message


def test_text_codec_matches_per_qubit_factors():
    rng = random.Random(11)
    for n in (1, 2, 7, 64, 65, 1365, 2000):
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        body = "".join(p.factor(q) for q in range(1, n + 1))
        text = body if p.sign > 0 else "-" + body
        assert format_pauli(p) == text
        assert parse_pauli(text) == p


def test_format_examples():
    assert format_pauli(identity(3)) == "III"
    assert format_pauli(PauliOperator(5, 0b00011, 0b10100, 1)) == "XXZIZ"
    assert format_pauli(multiply(parse_pauli("Z"), parse_pauli("X"))) == "-Y"


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 40)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        assert parse_pauli(format_pauli(p)) == p


def test_commutes_examples():
    assert commutes(parse_pauli("X"), parse_pauli("Z")) == 1
    assert commutes(parse_pauli("XX"), parse_pauli("ZZ")) == 0
    m3 = parse_pauli("XIXIZYZYXXZIZ")
    m4 = parse_pauli("XIYZXIYZZXXZI")
    assert commutes(m3, m4) == 0


def test_commutes_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        commutes(parse_pauli("XX"), parse_pauli("X"))
    with pytest.raises(ValueError, match="lengths differ"):
        multiply(parse_pauli("XX"), parse_pauli("X"))


def test_commutes_symmetric_and_self():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 20)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        q = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        assert commutes(p, q) == commutes(q, p)
        assert commutes(p, p) == 0


def test_multiply_examples():
    assert format_pauli(multiply(parse_pauli("X"), parse_pauli("Z"))) == "Y"
    assert format_pauli(multiply(parse_pauli("Z"), parse_pauli("X"))) == "-Y"
    assert format_pauli(multiply(parse_pauli("Y"), parse_pauli("Y"))) == "-I"


def test_single_qubit_table_matches_matrices():
    # Exhaustive: products of the real 2x2 matrices define the sign model.
    for a in SINGLES:
        for b in SINGLES:
            got = multiply(parse_pauli(a), parse_pauli(b))
            assert np.array_equal(dense(format_pauli(got)), dense(a) @ dense(b)), (a, b)


def test_single_qubit_commutation_matches_matrices():
    for a in SINGLES:
        for b in SINGLES:
            ma, mb = dense(a), dense(b)
            expected = 0 if np.array_equal(ma @ mb, mb @ ma) else 1
            assert commutes(parse_pauli(a), parse_pauli(b)) == expected


def test_multiply_matches_matrices_multi_qubit():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        b = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        got = multiply(a, b)
        assert np.array_equal(dense(format_pauli(got)), dense(format_pauli(a)) @ dense(format_pauli(b)))


def test_multiply_associative():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 12)
        ops = [
            PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
            for _ in range(3)
        ]
        a, b, c = ops
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_adjoint_is_inverse():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 12)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        assert multiply(p, adjoint(p)) == identity(n)
        assert multiply(adjoint(p), p) == identity(n)


def test_anticommute_iff_products_differ_by_sign():
    # Exhaustive over 2 qubits: PQ and QP share bits and differ only in sign.
    for xa in range(4):
        for za in range(4):
            for xb in range(4):
                for zb in range(4):
                    p = PauliOperator(2, xa, za)
                    q = PauliOperator(2, xb, zb)
                    pq = multiply(p, q)
                    qp = multiply(q, p)
                    assert (pq.x, pq.z) == (qp.x, qp.z)
                    assert commutes(p, q) == (0 if pq.sign == qp.sign else 1)


def test_square_sign():
    assert square_sign(parse_pauli("Y")) == -1
    assert square_sign(parse_pauli("XIXIZYZYXXZIZ")) == 1  # two Y factors
    assert square_sign(identity(4)) == 1
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 10)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        assert square_sign(p) == multiply(p, p).sign


def test_weight():
    assert weight(identity(13)) == 0
    assert weight(parse_pauli("XXZIZ")) == 4
    assert weight(parse_pauli("X" + "I" * 12)) == 1
    assert y_count(parse_pauli("XYZYI")) == 2


def test_tensor_examples():
    left = parse_pauli("XIXIZYZY")
    right = parse_pauli("XXZIZ")
    assert format_pauli(tensor(left, right)) == "XIXIZYZYXXZIZ"
    assert format_pauli(tensor(identity(8), parse_pauli("ZIZXX"))) == "IIIIIIIIZIZXX"
    assert tensor(identity(2), identity(3)) == identity(5)


def test_tensor_weight_additive():
    rng = random.Random(23)
    for _ in range(100):
        n, m = rng.randint(1, 10), rng.randint(1, 10)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        q = PauliOperator(m, rng.getrandbits(m), rng.getrandbits(m))
        assert weight(tensor(p, q)) == weight(p) + weight(q)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliOperator(0, 0, 0)
    with pytest.raises(ValueError):
        PauliOperator(2, 4, 0)
    with pytest.raises(ValueError):
        PauliOperator(2, 0, 0, 2)
