import itertools
import tracemalloc

import pytest

import qpaste.verification as verification
from qpaste.catalog import builtin
from qpaste.kl import kl_check
from qpaste.pauli import format_pauli, parse_pauli
from qpaste.stabilizer import InvalidCodeError, StabilizerCode
from qpaste.verification import (
    BoundStatus,
    best_k,
    check_code,
    distance,
    enumerate_errors,
    hamming_bound,
    iter_weight_errors,
    perfect_length,
    verify_distance3,
)

from helpers import (
    char_syndrome,
    degenerate_code6,
    np_in_span,
    reference_best_k,
    syndrome,
)


def from_strings(*rows):
    return StabilizerCode([parse_pauli(r) for r in rows])


def test_error_counts():
    assert len(enumerate_errors(13, 1)) == 40
    assert len(enumerate_errors(5, 1)) == 16
    assert len(enumerate_errors(2, 2)) == 16
    assert all(len(enumerate_errors(n, 1)) == 3 * n + 1 for n in range(1, 30))


def test_error_order_frozen():
    members = [format_pauli(e) for e in enumerate_errors(2, 1)]
    assert members == ["II", "XI", "YI", "ZI", "IX", "IY", "IZ"]
    assert type(enumerate_errors(2, 1)) is tuple
    weight2 = [format_pauli(e) for e in enumerate_errors(2, 2)[7:10]]
    assert weight2 == ["XX", "XY", "XZ"]
    members = [format_pauli(e) for e in enumerate_errors(3, 1)]
    assert members == ["III", "XII", "YII", "ZII", "IXI", "IYI", "IZI", "IIX", "IIY", "IIZ"]
    weight2 = [format_pauli(e) for e in enumerate_errors(3, 2)[10:20]]
    assert weight2 == ["XXI", "XYI", "XZI", "YXI", "YYI", "YZI", "ZXI", "ZYI", "ZZI", "XIX"]


def test_error_sets_are_shared_and_bounded():
    # Equal arguments return the same immutable set; the memo holds a fixed
    # number of sets however many lengths are asked for.
    errors = enumerate_errors(5, 1)
    assert enumerate_errors(5, 1) is errors
    before = [(e.n, e.x, e.z, e.sign) for e in errors]
    kl_check(builtin("code5"), errors)
    assert [(e.n, e.x, e.z, e.sign) for e in errors] == before
    assert enumerate_errors(5, 1) is errors
    for n in range(1, 3 * verification._ERROR_SETS_KEPT):
        enumerate_errors(n, 1)
    info = enumerate_errors.cache_info()
    assert info.maxsize == verification._ERROR_SETS_KEPT
    assert info.currsize == verification._ERROR_SETS_KEPT


def test_error_range_checks():
    with pytest.raises(ValueError):
        enumerate_errors(3, 4)
    with pytest.raises(ValueError):
        enumerate_errors(3, -1)
    with pytest.raises(ValueError, match="need at least one qubit"):
        enumerate_errors(0, 0)
    for n, w, message in [
        (0, 1, "need at least one qubit"),
        (-2, 1, "need at least one qubit"),
        (3, 4, "max weight 4 out of range for 3 qubits"),
        (3, -1, "max weight -1 out of range for 3 qubits"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            next(iter_weight_errors(n, w))
        assert str(excinfo.value) == message


def test_verify_code13():
    report = verify_distance3(builtin("code13"))
    assert report.ok and not report.degenerate
    assert report.distinct_count == 40 and report.error_count == 40
    assert report.witness is None


def test_verify_code5_perfect():
    code = builtin("code5")
    report = verify_distance3(code)
    assert report.ok and report.distinct_count == 16
    seen = {syndrome(code, e).as_int() for e in enumerate_errors(5, 1)}
    assert seen == set(range(16))


def test_verify_single_generator_code():
    report = verify_distance3(from_strings("ZZ"))
    assert not report.ok
    # First collision in enumeration order: X on qubit 1, then Y on qubit 1,
    # both anticommuting with the only generator.
    e, f = report.witness
    assert (format_pauli(e), format_pauli(f)) == ("XI", "YI")


def test_verify_degenerate_code():
    code = degenerate_code6()
    strict = verify_distance3(code)
    assert not strict.ok
    loose = verify_distance3(code, allow_degenerate=True)
    assert loose.ok and loose.degenerate
    pairs = [(format_pauli(a), format_pauli(b)) for a, b in loose.degenerate_pairs]
    assert pairs == [("ZIIIII", "IIIIIZ")]


def test_verify_requires_valid_code():
    with pytest.raises(InvalidCodeError):
        verify_distance3(from_strings("X", "Z"))
    with pytest.raises(InvalidCodeError):
        distance(from_strings("X", "Z"), 2)


def test_distance_small_codes():
    assert distance(from_strings("ZZ"), 2) == 1  # Z on one qubit commutes, not a member
    assert distance(builtin("code5"), 3) == 3
    assert distance(builtin("code5"), 2) is None
    assert distance(builtin("code13"), 3) == 3
    assert distance(builtin("code13"), 2) is None


def test_distance_code5_vs_full_enumeration_oracle():
    # Independent route: all 4^5 Pauli strings, character-level commutation
    # and numpy span membership.
    rows = [format_pauli(g) for g in builtin("code5").generators]
    best = None
    for factors in itertools.product("IXYZ", repeat=5):
        s = "".join(factors)
        w = sum(1 for ch in s if ch != "I")
        if w == 0 or (best is not None and w >= best):
            continue
        if any(int(b) for b in char_syndrome(rows, s)):
            continue
        if not np_in_span(rows, s):
            best = w
    assert best == 3


def test_distance_code13_vs_restricted_oracle():
    rows = [format_pauli(g) for g in builtin("code13").generators]
    found = None
    for w in (1, 2, 3):
        for positions in itertools.combinations(range(13), w):
            for factors in itertools.product("XYZ", repeat=w):
                chars = ["I"] * 13
                for pos, f in zip(positions, factors):
                    chars[pos] = f
                s = "".join(chars)
                if any(int(b) for b in char_syndrome(rows, s)):
                    continue
                if not np_in_span(rows, s):
                    found = w
                    break
            if found:
                break
        if found:
            break
    assert found == 3


def test_distance_range_check():
    with pytest.raises(ValueError):
        distance(builtin("code5"), 6)


def test_cross_check_distance3_formulations():
    # For nondegenerate inputs the two formulations agree.
    for code in (builtin("code5"), builtin("code8"), builtin("code13")):
        report = verify_distance3(code)
        no_low_logical = distance(code, 2) is None
        nonzero = all(
            not syndrome(code, e).is_zero
            for e in enumerate_errors(code.n, 1)[1:]
        )
        assert report.ok == (no_low_logical and nonzero)
    bad = from_strings("ZZ")
    assert not verify_distance3(bad).ok
    assert distance(bad, 2) == 1


def test_perfect_family_saturates_the_bound():
    # The catalog relies on this identity instead of testing each perfect code.
    for j in range(1, 65):
        n = perfect_length(j)
        assert hamming_bound(n, n - 2 * j - 2) is BoundStatus.SATURATED


def test_hamming_bound_examples():
    assert hamming_bound(13, 7) is BoundStatus.SATISFIED
    assert hamming_bound(5, 1) is BoundStatus.SATURATED
    assert hamming_bound(21, 15) is BoundStatus.SATURATED
    assert hamming_bound(85, 77) is BoundStatus.SATURATED
    assert hamming_bound(341, 331) is BoundStatus.SATURATED
    assert hamming_bound(5, 2) is BoundStatus.VIOLATED
    assert (3 * 5 + 1) * 2**1 == 2**5
    assert (3 * 21 + 1) * 2**15 == 2**21


def test_best_k():
    assert best_k(13) == 7
    assert (3 * 13 + 1) * 2**7 <= 2**13 < (3 * 13 + 1) * 2**8
    assert best_k(5) == 1
    assert best_k(4) == 0
    assert best_k(3) is None
    assert best_k(341) == 331


def test_perfect_lengths():
    assert [perfect_length(j) for j in range(1, 5)] == [5, 21, 85, 341]
    for j in range(1, 8):
        n = perfect_length(j)
        assert hamming_bound(n, n - (2 * j + 2)) is BoundStatus.SATURATED
    with pytest.raises(ValueError):
        perfect_length(0)


def test_bound_range_checks():
    with pytest.raises(ValueError):
        hamming_bound(5, 6)
    with pytest.raises(ValueError):
        hamming_bound(5, -1)
    with pytest.raises(ValueError, match="need at least one qubit"):
        hamming_bound(0, 0)
    with pytest.raises(ValueError):
        best_k(0)


def literal_bound(n, k):
    lhs, rhs = (3 * n + 1) << k, 1 << n
    if lhs > rhs:
        return BoundStatus.VIOLATED
    return BoundStatus.SATURATED if lhs == rhs else BoundStatus.SATISFIED


def test_hamming_bound_matches_big_integer_formula():
    for n in range(1, 301):
        for k in range(n + 1):
            assert hamming_bound(n, k) is literal_bound(n, k), (n, k)


def test_hamming_bound_matches_big_integer_formula_where_best_k_steps():
    # best_k steps by one where 3n crosses a power of two, at n = ceil(2^t / 3);
    # the perfect lengths are the n where the bound saturates.
    steps = {-(-(1 << t) // 3) + d for t in range(2, 25) for d in (-1, 0, 1)}
    lengths = steps | {perfect_length(j) for j in range(1, 12)}
    for n in sorted(lengths):
        best = best_k(n)
        ks = {0, n} if best is None else {0, best - 1, best, best + 1, n}
        for k in sorted(k for k in ks if 0 <= k <= n):
            assert hamming_bound(n, k) is literal_bound(n, k), (n, k)


def test_hamming_bound_builds_no_power_of_two_near_2_to_n():
    n = 10**7
    for k in (0, best_k(n), n):
        tracemalloc.start()
        try:
            hamming_bound(n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (k, peak)


def test_best_k_closed_form_matches_doubling_loop():
    for n in range(1, 4097):
        assert best_k(n) == reference_best_k(n), n


def test_distance_rejects_weight_below_one():
    code = builtin("code5")
    for w in (0, -1):
        with pytest.raises(ValueError, match=r"1\.\.5"):
            distance(code, w)


def test_check_code_stops_at_an_invalid_code():
    items = list(check_code(from_strings("XX", "XX"), max_weight=2, kl=True))
    assert items == [
        (
            "validate: FAIL\n  violation rank (2,): generator 2 is a product of "
            "earlier ones, rank 1 < 2",
            False,
        )
    ]


def test_check_code_spells_an_empty_best_k_none():
    # No k satisfies the bound at n = 2, which bound's report spells "none" too.
    items = list(check_code(from_strings("XX", "ZZ")))
    assert items[2] == ("bound: violated (best_k=none, not perfect)", True)


def test_check_code_kl_line_needs_the_distinct_count(monkeypatch):
    def short_rank(code, errors):
        report = kl_check(code, errors)
        assert report.passed
        return report._replace(rank=report.rank - 1)

    monkeypatch.setattr(verification, "kl_check", short_rank)
    items = list(check_code(builtin("code5"), kl=True))
    assert [ok for _, ok in items] == [True, True, True, False]
    assert items[-1][0] == "kl: FAIL (C rank 15/16, max deviation 0.00e+00)"


def test_check_code_runs_a_check_only_when_its_line_is_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("ran before its line was read")

    monkeypatch.setattr(verification, "distance", refuse)
    monkeypatch.setattr(verification, "kl_check", refuse)
    lines = check_code(builtin("code13"), max_weight=3, kl=True)
    first = [line for line, _ in itertools.islice(lines, 3)]
    assert [line.split(":")[0] for line in first] == ["validate", "distance3", "bound"]
    with pytest.raises(AssertionError, match="before its line"):
        next(lines)
