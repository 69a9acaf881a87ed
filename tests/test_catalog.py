import random
import threading

import pytest

from qpaste import catalog
from qpaste.catalog import builtin, entries, hamming_class, perfect
from qpaste.pauli import format_pauli
from qpaste.pasting import locate_xz_generators
from qpaste.stabilizer import syndrome, validate
from qpaste.verification import (
    BoundStatus,
    enumerate_errors,
    hamming_bound,
    verify_distance3,
)

from helpers import random_mixer

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


def test_hamming_class_rejects_singular_mixer():
    with pytest.raises(ValueError, match="invertible"):
        hamming_class(3, mixer=[0b001, 0b010, 0b011])  # singular
    with pytest.raises(ValueError, match="invertible"):
        hamming_class(3, mixer=[0b001, 0b010, 0b100])  # identity: L+I singular


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
        seen = {syndrome(code, e).as_int() for e in enumerate_errors(code.n, 1).members}
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


def test_entries():
    listed = entries()
    assert [e.name for e in listed] == ["code5", "code8", "code13"]
    by_name = {e.name: e for e in listed}
    assert by_name["code13"].provenance == "pasted"
    assert by_name["code5"].provenance == "builtin"
    assert all(e.k == e.n - e.a for e in listed)


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
