import hashlib
import random
import threading

import pytest

from qpaste import catalog, pasting
from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.files import dumps
from qpaste.pauli import format_pauli
from qpaste.pasting import locate_xz_generators
from qpaste.stabilizer import validate
from qpaste.verification import (
    BoundStatus,
    enumerate_errors,
    hamming_bound,
    verify_distance3,
)

from helpers import (
    fail_distance3_on,
    fail_validation_on,
    random_mixer,
    reference_hamming_rows,
    reference_label_images,
    syndrome,
)

CODE5_ROWS = ["XXZIZ", "ZXXZI", "IZXXZ", "ZIZXX"]
CODE8_ROWS = ["XXXXXXXX", "ZZZZZZZZ", "XIXIZYZY", "XIYZXIYZ", "XZIYIYXZ"]
CODE13_ROWS = [
    "XXXXXXXXIIIII",
    "ZZZZZZZZIIIII",
    "XIXIZYZYXXZIZ",
    "XIYZXIYZZXXZI",
    "XZIYIYXZIZXXZ",
    "IIIIIIIIZIZXX",
]


def rows_of(code):
    return [format_pauli(g) for g in code.generators]


def test_builtin_rows_golden():
    assert rows_of(builtin("code5")) == CODE5_ROWS
    assert rows_of(builtin("code8")) == CODE8_ROWS
    assert rows_of(builtin("code13")) == CODE13_ROWS


def test_builtin_blocks_consistent():
    # The 13-qubit rows restrict to the two smaller codes.
    for i in range(4):
        assert CODE13_ROWS[i + 2][8:] == CODE5_ROWS[i]
    for i in range(5):
        assert CODE13_ROWS[i][:8] == CODE8_ROWS[i]


def test_builtin_all_verified():
    for name, (n, a) in (("code5", (5, 4)), ("code8", (8, 5)), ("code13", (13, 6))):
        code = builtin(name)
        assert (code.n, code.a) == (n, a)
        assert validate(code).ok
        report = verify_distance3(code)
        assert report.ok and not report.degenerate


def test_builtin_unknown():
    with pytest.raises(ValueError, match="unknown"):
        builtin("code7")


def test_builtin_cached():
    assert builtin("code13") is builtin("code13")
    assert perfect(2) is perfect(2)


def test_hamming_class_m3_is_code8():
    assert hamming_class(3) is builtin("code8")


def test_hamming_class_m4():
    code = hamming_class(4)
    assert (code.n, code.a, code.n - code.a) == (16, 6, 10)
    report = verify_distance3(code)
    assert report.ok and report.distinct_count == 49
    assert format_pauli(code.generators[0]) == "X" * 16
    assert format_pauli(code.generators[1]) == "Z" * 16
    assert locate_xz_generators(code) is code


def test_hamming_class_m5():
    code = hamming_class(5)
    assert (code.n, code.a) == (32, 7)
    assert verify_distance3(code).ok


def test_hamming_class_rejects_small_m():
    with pytest.raises(ValueError, match="m=2"):
        hamming_class(2)


def test_hamming_class_custom_mixer():
    rng = random.Random(59)
    for m in (3, 4):
        code = hamming_class(m, mixer=random_mixer(rng, m))
        assert (code.n, code.a) == (1 << m, m + 2)
        assert verify_distance3(code).ok


def test_hamming_class_rejects_mixer_of_wrong_size():
    with pytest.raises(ValueError, match=r"^mixer needs 4 rows, got 3$"):
        hamming_class(4, mixer=[1, 2, 4])


def test_catalog_check_is_the_paste_output_check(monkeypatch):
    # Built codes go through the check paste runs on its output, wording included.
    fail_distance3_on(monkeypatch, 16)
    with pytest.raises(
        RuntimeError,
        match=r"^hamming_class\(4\) failed the distance check: "
        r"syndrome collision between XI{15} and ZI{15}$",
    ):
        hamming_class(4, mixer=random_mixer(random.Random(5), 4))


def test_catalog_validation_failure_is_the_paste_output_wording(monkeypatch):
    fail_validation_on(monkeypatch, 16)
    with pytest.raises(
        RuntimeError,
        match=r"^hamming_class\(4\) failed validation: anticommute \(1, 3\): rows "
        r"anticommute; rank \(2,\): row depends on earlier rows$",
    ):
        hamming_class(4, mixer=random_mixer(random.Random(5), 4))


def test_hamming_class_rejects_singular_mixer():
    with pytest.raises(ValueError, match="invertible"):
        hamming_class(3, mixer=[0b001, 0b010, 0b011])  # singular
    with pytest.raises(ValueError, match="invertible"):
        hamming_class(3, mixer=[0b001, 0b010, 0b100])  # identity: L+I singular


# SHA-256 of dumps() of each constructed family member, fixed so that a
# change of the default mixer or of the pasting order cannot pass unseen.
HAMMING_SHA256 = {
    3: "81b80bb8ff2868ec3b39212ea41398264bf4b7b47179d3b9cec5a6bde0a24e7a",
    4: "72a4ea9618ba075cd7aebca5c02dee279452562f2b05afdcf14b0c4b37bb463a",
    5: "91034a1de6570f8740782f039f9e5eafb647afd6f79842c2fbd25017b369e48e",
    6: "9ff5f88043474d53781229ec43431ab7ac82e52203331750c2c4ef7c6cd42603",
    7: "7e5cce7baa07fd85e90a08c8aa21f00ecdebfe6a3e17e776903250fae04a9dda",
    8: "8334d77f38efd5d475c708f445b3433992b35c175f55d1e18f2cd5530d3d52bf",
    9: "565ec2fb292ce0acf8ece5038c06bb9b7ecf5618cdf9fdc60c565d2712429a5c",
    10: "8237c4bd9660ac1bb19cd4eb97bc145e2800218d4420180f0aba152c95939325",
    11: "a4565f6f8e24f0a8bc88d6e017921cb623c4144fb1c3919d88e7a797274b453f",
    12: "feef1e856a017ca84069969f629268b36ffa132a035cf0169b1ed53b88d5f596",
    13: "7c0227e977c9c6da85822d9702f2210590b9121f053bd2d54ca51ed8b9ac900e",
    14: "f0bffefa586f91de1893de52c23f4707bf1bef4ef84c00684ee81ee78b379be6",
    15: "958b5a684ad7fb1851fd4ff0b7bdb84d60fa220b459af44e3df8e9df1d14ab93",
    16: "858b6808613e467eb39e14d31dcc26d78568976cb849647fd6a2f7287164f6a8",
}
PERFECT_SHA256 = {
    1: "0024361ee5ac092ff1d514e3c87400d51bf2578d275e17daabe657c13cb4bc1d",
    2: "2a418433ff7ef9bae6240590be832ca1c41c30d27ba0e4327f066e35ffd34b9f",
    3: "69a423027b0208d321cffb4f2061930a093d1b972aa4ade6658c98c508af905d",
    4: "a4c58b783486a6b97eb8173ac4dd566089ee787eecfbdd757e7008400f55524f",
    5: "72e6a36f149e0da06b9f5072b2d962376ac455f3d35b70885bcd1caf75e9f7ab",
    6: "2623119a0c179051625b8d4945be340a73b1a45e4a0b78f80c60d41aba92112d",
    7: "fe6dfd414643a8d789801440e088fbd2dd73ac23e8f142b76146b20527b0067d",
    8: "b6451b56754850f5675cee12b3cc61e81fa47c33d0e45af2c9c1e172237e56b6",
}


def _sha256(code) -> str:
    return hashlib.sha256(dumps(code).encode()).hexdigest()


@pytest.mark.parametrize("m", sorted(HAMMING_SHA256))
def test_hamming_class_golden(m):
    assert _sha256(hamming_class(m)) == HAMMING_SHA256[m]


@pytest.mark.parametrize("j", sorted(PERFECT_SHA256))
def test_perfect_golden(j):
    assert _sha256(perfect(j, j_max=j)) == PERFECT_SHA256[j]


# The table the default polynomials were once copied from, kept as an oracle:
# coefficients as a bitmask including the leading term.
OLD_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}
NEW_PRIMITIVE_POLY = {13: 0x201B, 14: 0x402B, 15: 0x8003, 16: 0x1002D}


def _mul_mod(a: int, b: int, poly: int, m: int) -> int:
    """a * b modulo poly, a and b of degree below m."""
    product = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            product ^= a << i
    for i in range(product.bit_length() - 1, m - 1, -1):
        if product >> i & 1:
            product ^= poly << (i - m)
    return product


def _x_power(e: int, poly: int, m: int) -> int:
    """x^e modulo poly, by squaring and multiplying."""
    result, square = 1, 2
    while e:
        if e & 1:
            result = _mul_mod(result, square, poly, m)
        square = _mul_mod(square, square, poly, m)
        e >>= 1
    return result


def _is_primitive(poly: int, m: int) -> bool:
    """x has order exactly 2^m - 1: x^(2^m-1) = 1, and x^((2^m-1)/p) != 1
    for every prime p dividing 2^m - 1."""
    order = (1 << m) - 1
    primes, rest, p = [], order, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    return _x_power(order, poly, m) == 1 and all(
        _x_power(order // p, poly, m) != 1 for p in primes
    )


def test_derived_polynomials_match_the_old_table():
    for m, poly in OLD_PRIMITIVE_POLY.items():
        assert catalog._smallest_primitive_poly(m) == poly


def test_derived_polynomials_past_the_old_table():
    for m, poly in NEW_PRIMITIVE_POLY.items():
        assert catalog._smallest_primitive_poly(m) == poly


@pytest.mark.parametrize("m", range(3, 17))
def test_derived_polynomial_is_the_smallest_primitive_one(m):
    # An independent search: odd candidates in increasing order, each tested
    # against the prime factors of 2^m - 1.
    first = next(p for p in range((1 << m) | 1, 2 << m, 2) if _is_primitive(p, m))
    assert catalog._smallest_primitive_poly(m) == first


@pytest.mark.parametrize("m", [21, 40])
def test_hamming_class_refused_past_the_limit(m):
    message = rf"^m={m} rejected: the n = 2\^m family stops at m=20$"
    with pytest.raises(ValueError, match=message):
        hamming_class(m)
    with pytest.raises(ValueError, match=message):
        hamming_class(m, mixer=random_mixer(random.Random(m), m))


def test_perfect_past_the_limit_is_refused_before_its_smaller_code_is_built():
    # perfect(11) pastes onto hamming_class(22), which is refused before
    # the 1,398,101-qubit perfect(10) is built.
    before = catalog._perfect.cache_info()
    with pytest.raises(ValueError, match=r"^m=22 rejected: .* stops at m=20$"):
        perfect(11, j_max=11)
    after = catalog._perfect.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)


@pytest.mark.parametrize("m", range(3, 11))
def test_hamming_rows_match_label_reference(m):
    rng = random.Random(m)
    mixer = random_mixer(rng, m)
    # The same mixer with bits at and above m, which L must ignore.
    wide = [row | (rng.getrandbits(3) << m) for row in mixer]
    for rows in (mixer, wide):
        code = hamming_class(m, mixer=rows)
        assert list(code.generators[2:]) == reference_hamming_rows(m, mixer)


def _bijective(m: int, rows: list[int]) -> bool:
    return len(set(reference_label_images(m, rows))) == 1 << m


@pytest.mark.parametrize("m", range(3, 7))
def test_mixer_rejected_exactly_when_a_labelling_is_not_a_bijection(m):
    rng = random.Random(100 + m)
    outcomes = set()
    for _ in range(100):
        rows = [rng.getrandbits(m) for _ in range(m)]
        successor = [row ^ (1 << r) for r, row in enumerate(rows)]  # L + I
        accepted = _bijective(m, rows) and _bijective(m, successor)
        if accepted:
            code = hamming_class(m, mixer=rows)
            assert list(code.generators[2:]) == reference_hamming_rows(m, rows)
        else:
            with pytest.raises(ValueError, match="^mixer rejected: "):
                hamming_class(m, mixer=rows)
        outcomes.add(accepted)
    assert outcomes == {False, True}


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_random_mixer_refuses_sizes_without_a_mixer(m):
    with pytest.raises(ValueError, match="mixer"):
        random_mixer(random.Random(m), m)


def test_perfect_parameters():
    expected = {1: (5, 4), 2: (21, 6), 3: (85, 8), 4: (341, 10)}
    for j, (n, a) in expected.items():
        code = perfect(j)
        assert (code.n, code.a) == (n, a)
        assert hamming_bound(n, n - a) is BoundStatus.SATURATED


def test_perfect_syndrome_bijection():
    for j in (1, 2):
        code = perfect(j)
        a = code.a
        seen = {syndrome(code, e).as_int() for e in enumerate_errors(code.n, 1)}
        assert seen == set(range(1 << a))


def test_perfect_range():
    with pytest.raises(ValueError):
        perfect(0)
    with pytest.raises(ValueError, match="maximum"):
        perfect(5)


def test_perfect_j5_behind_flag():
    code = perfect(5, j_max=5)
    assert (code.n, code.a) == (1365, 12)
    assert hamming_bound(1365, 1365 - 12) is BoundStatus.SATURATED


def test_equal_arguments_return_the_same_object():
    for j in range(1, 5):
        assert perfect(j, j_max=5) is perfect(j)
    assert builtin(name="code5") is builtin("code5")
    assert hamming_class(m=4) is hamming_class(4)


def _clear_catalog_caches():
    for memo in (catalog._builtin, catalog._default_hamming_class, catalog._perfect):
        memo.cache_clear()


def test_threads_racing_a_first_build_get_equal_codes():
    _clear_catalog_caches()
    expected = perfect(3)
    _clear_catalog_caches()
    start = threading.Barrier(4)
    results = [None] * 4

    def build(slot):
        start.wait()
        results[slot] = perfect(3)

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(code == expected for code in results)
    assert perfect(3) is perfect(3)


def test_cold_perfect_checks_each_pasted_code_once(monkeypatch):
    real_paste, real_locate = catalog.paste, pasting.locate_xz_generators
    inputs, pasted, located, checked = [], [], [], []

    def recording_paste(larger, smaller):
        inputs.extend((larger, smaller))
        pasted.append(real_paste(larger, smaller))
        return pasted[-1]

    def recording_locate(code):
        located.append(code)
        return real_locate(code)

    def recording_distance3(code, *args, **kwargs):
        checked.append(code)
        return verify_distance3(code, *args, **kwargs)

    monkeypatch.setattr(catalog, "paste", recording_paste)
    monkeypatch.setattr(pasting, "locate_xz_generators", recording_locate)
    for module in (catalog, pasting):
        if getattr(module, "verify_distance3", None) is verify_distance3:
            monkeypatch.setattr(module, "verify_distance3", recording_distance3)
    _clear_catalog_caches()
    perfect(6, j_max=6)
    assert len(pasted) == 5
    assert len(located) == 5
    for code in pasted:
        # Once as its own paste's output, and once as each later paste's input.
        assert sum(c is code for c in checked) == 1 + sum(c is code for c in inputs)
    # code5, hamming_class(4, 6, 8, 10, 12), and per paste its two inputs and its output.
    assert len(checked) == 1 + 5 + 3 * 5
