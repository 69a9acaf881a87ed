import random

import numpy as np
import pytest

from qpaste.pauli import (
    PauliOperator,
    PauliParseError,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
)

from helpers import _odd_y_count, adjoint, anticommutes, dense

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


@pytest.mark.parametrize(
    "text, message",
    [
        ("XZ Y", "invalid character ' ' at position 3"),
        ("XZ_Y", "invalid character '_' at position 3"),
        ("0XZ", "invalid character '0' at position 1"),
        ("XZ1", "invalid character '1' at position 3"),
        ("+-XZ", "invalid character '-' at position 1"),
        ("--XZ", "invalid character '-' at position 1"),
        ("XZé", "invalid character 'é' at position 3"),
        ("\udcffXZ", "invalid character '\\udcff' at position 1"),
    ],
)
def test_parse_refusal_messages(text, message):
    with pytest.raises(PauliParseError) as info:
        parse_pauli(text)
    assert str(info.value) == message


def test_parse_refuses_every_other_character_below_256():
    # int(..., 2) takes whitespace, "_", signs and the digits: each must still be refused.
    for code in set(range(256)) - set(b"IXYZ"):
        ch = chr(code)
        for text, position in (("+" + ch + "XZ", 1), ("XY" + ch + "Z", 3), ("IZ" + ch, 3)):
            with pytest.raises(PauliParseError) as info:
                parse_pauli(text)
            assert str(info.value) == f"invalid character {ch!r} at position {position}"


def test_text_codec_matches_per_qubit_factors():
    rng = random.Random(11)
    for n in (1, 2, 7, 64, 65, 1365, 2000):
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
        body = "".join("IXZY"[((p.x >> i) & 1) + 2 * ((p.z >> i) & 1)] for i in range(n))
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


def test_multiply_length_mismatch():
    with pytest.raises(ValueError) as info:
        multiply(parse_pauli("XX"), parse_pauli("X"))
    assert str(info.value) == "operator lengths differ: 2 != 1"


def test_commutes_symmetric_and_self():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 20)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        q = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        pq, qp = multiply(p, q), multiply(q, p)
        assert (pq.x, pq.z) == (qp.x, qp.z)
        assert anticommutes(p, q) == anticommutes(q, p) == (0 if pq.sign == qp.sign else 1)
        assert anticommutes(p, p) == 0


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
        if n <= 4:
            assert np.array_equal(dense(format_pauli(adjoint(p))), dense(format_pauli(p)).T)


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
                    assert anticommutes(p, q) == (0 if pq.sign == qp.sign else 1)


def test_square_sign():
    # p.p is -I exactly when the Y count is odd: the rule of validate's square check.
    for text, sign in (("Y", -1), ("XIXIZYZYXXZIZ", 1), ("IIII", 1)):  # 1, 2, 0 Y factors
        p = parse_pauli(text)
        assert multiply(p, p) == PauliOperator(p.n, 0, 0, sign)
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 10)
        p = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        assert multiply(p, p).sign == (-1 if _odd_y_count(p) else 1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliOperator(0, 0, 0)
    with pytest.raises(ValueError):
        PauliOperator(2, 4, 0)
    with pytest.raises(ValueError):
        PauliOperator(2, 0, 0, 2)
    with pytest.raises(ValueError):
        PauliOperator(2, 0, 0)._replace(x=4)
