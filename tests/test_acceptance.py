"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
enforces the stated runtime budget.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

import numpy as np

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.kl import kl_check
from qpaste.pauli import PauliOperator, format_pauli, multiply, parse_pauli
from qpaste.pasting import (
    CHECK_GENERATOR_COUNT,
    CHECK_SMALLER_NONDEGENERATE,
    CHECK_XZ_ROWS,
    augment,
    can_paste,
    paste,
)
from qpaste.stabilizer import validate
from qpaste.verification import (
    BoundStatus,
    best_k,
    distance,
    enumerate_errors,
    hamming_bound,
    verify_distance3,
)

from helpers import (
    anticommutes,
    degenerate_code6,
    dense,
    paste_sample,
    random_valid_code,
    random_mixer,
    shuffled_qubits,
    syndrome,
)

SINGLES = ["I", "X", "Y", "Z"]


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_golden_13_qubit_reproduction():
    larger = augment(builtin("code8"), 1)
    smaller = builtin("code5")
    paste(larger, smaller)  # warm caches before timing
    start = time.perf_counter()
    out = paste(larger, smaller)
    elapsed = time.perf_counter() - start
    exact = out == builtin("code13")
    rows_match = [format_pauli(g) for g in out.generators] == [
        "XXXXXXXXIIIII",
        "ZZZZZZZZIIIII",
        "XIXIZYZYXXZIZ",
        "XIYZXIYZZXXZI",
        "XZIYIYXZIZXXZ",
        "IIIIIIIIZIZXX",
    ]
    _report(
        "1 (13-qubit reproduction)",
        exact and rows_match and elapsed < 0.010,
        f"bit-exact={exact and rows_match}, {elapsed * 1000:.2f} ms",
    )


def test_criterion_2_13_qubit_verification():
    code = builtin("code13")
    start = time.perf_counter()
    valid = validate(code).ok
    report = verify_distance3(code)
    d = distance(code, 3)
    k_best = best_k(13)
    elapsed = time.perf_counter() - start
    ok = (
        valid
        and report.ok
        and report.distinct_count == 40
        and report.error_count == 40
        and d == 3
        and k_best == 7
        and elapsed < 1.0
    )
    _report(
        "2 (13-qubit verification)",
        ok,
        f"valid={valid}, distinct={report.distinct_count}/40, distance={d}, "
        f"best_k={k_best}, {elapsed:.3f} s",
    )


def test_criterion_3_perfect_family():
    expected = {1: (5, 1), 2: (21, 15), 3: (85, 77), 4: (341, 331)}
    start = time.perf_counter()
    details = []
    ok = True
    for j, (n, k) in expected.items():
        code = perfect(j)
        a = code.a
        saturated = hamming_bound(n, k) is BoundStatus.SATURATED
        params_ok = code.n == n and n - a == k and a == 2 * j + 2
        distinct = verify_distance3(code).ok
        syndromes = {
            syndrome(code, e).as_int() for e in enumerate_errors(n, 1)
        }
        bijective = syndromes == set(range(1 << a))
        ok = ok and saturated and params_ok and distinct and bijective
        details.append(f"j={j}:(n={code.n},k={n - a})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("3 (perfect family)", ok, ", ".join(details) + f", {elapsed:.3f} s")


def test_criterion_4_kl_oracle_agreement():
    start = time.perf_counter()
    kl5 = kl_check(builtin("code5"), enumerate_errors(5, 1))
    kl8 = kl_check(builtin("code8"), enumerate_errors(8, 1))
    catalog_ok = kl5.passed and kl5.full_rank and kl8.passed and kl8.full_rank

    rng = random.Random(101)
    # 20 randomly generated valid nondegenerate codes with n <= 8
    nondegenerate = []
    for _ in range(6):
        nondegenerate.append(shuffled_qubits(rng, builtin("code5")))
    for _ in range(6):
        nondegenerate.append(shuffled_qubits(rng, builtin("code8")))
    for _ in range(8):
        nondegenerate.append(hamming_class(3, mixer=random_mixer(rng, 3)))
    assert len(nondegenerate) == 20
    assert all(verify_distance3(code).ok for code in nondegenerate)
    # plus mixed-quality random generator sets so agreement is tested in
    # the failing direction too
    mixed = []
    for _ in range(10):
        n = rng.randint(5, 8)
        k = rng.randint(1, 3)
        mixed.append(random_valid_code(rng, n, n - k))

    agreements = 0
    passes = 0
    for code in nondegenerate + mixed:
        kl = kl_check(code, enumerate_errors(code.n, 1))
        syndrome_ok = verify_distance3(code).ok
        if (kl.passed and kl.full_rank) == syndrome_ok:
            agreements += 1
        if syndrome_ok:
            passes += 1
    elapsed = time.perf_counter() - start
    total = len(nondegenerate) + len(mixed)
    ok = catalog_ok and agreements == total and passes >= 20 and passes < total and elapsed < 30.0
    _report(
        "4 (KL oracle agreement)",
        ok,
        f"catalog={catalog_ok}, agreement={agreements}/{total} "
        f"({passes} passing, {total - passes} failing), {elapsed:.2f} s",
    )


def test_criterion_5_closure_property():
    rng = random.Random(103)
    start = time.perf_counter()
    checked = 0
    for i in range(100):
        larger, smaller = paste_sample(rng, i)
        out = paste(larger, smaller)
        assert validate(out).ok
        report = verify_distance3(out)
        assert report.ok and not report.degenerate
        assert out.n == larger.n + smaller.n and out.a == larger.a

        # syndrome prefix split: 01/10/11 on original qubits, 00 + the
        # smaller code's bits on the new qubits
        n_large = larger.n
        for qubit in range(out.n):
            for x_bit, z_bit, prefix in ((1, 0, (0, 1)), (0, 1, (1, 0)), (1, 1, (1, 1))):
                err = parse_pauli(
                    "".join(
                        {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(x_bit, z_bit)]
                        if q == qubit
                        else "I"
                        for q in range(out.n)
                    )
                )
                bits = syndrome(out, err).bits
                if qubit < n_large:
                    assert bits[:2] == prefix
                else:
                    assert bits[:2] == (0, 0)
                    small_err = PauliOperator(
                        smaller.n, x_bit << (qubit - n_large), z_bit << (qubit - n_large)
                    )
                    assert bits[2:] == tuple(
                        anticommutes(row, small_err) for row in smaller.generators
                    )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed < 30.0
    _report("5 (closure property)", ok, f"{checked}/100 samples, {elapsed:.2f} s")


def test_criterion_6_negative_preconditions():
    diag_a = can_paste(builtin("code13"), builtin("code5"))
    case_a = diag_a.failed_names() == (CHECK_XZ_ROWS,)

    diag_b = can_paste(augment(builtin("code8"), 2), builtin("code5"))
    case_b = diag_b.failed_names() == (CHECK_GENERATOR_COUNT,)

    diag_c = can_paste(augment(builtin("code8"), 2), degenerate_code6())
    case_c = diag_c.failed_names() == (CHECK_SMALLER_NONDEGENERATE,)

    distinct = len({CHECK_XZ_ROWS, CHECK_GENERATOR_COUNT, CHECK_SMALLER_NONDEGENERATE}) == 3
    _report(
        "6 (negative preconditions)",
        case_a and case_b and case_c and distinct,
        f"xz={case_a}, count={case_b}, degenerate={case_c}",
    )


def test_criterion_7_single_qubit_algebra():
    mismatches = []
    for a in SINGLES:
        for b in SINGLES:
            product = multiply(parse_pauli(a), parse_pauli(b))
            if not np.array_equal(dense(format_pauli(product)), dense(a) @ dense(b)):
                mismatches.append(("multiply", a, b))
            # Commutation read from PQ against QP.
            ma, mb = dense(a), dense(b)
            expected = np.array_equal(ma @ mb, mb @ ma)
            if (product.sign == multiply(parse_pauli(b), parse_pauli(a)).sign) != expected:
                mismatches.append(("commutation", a, b))
    _report(
        "7 (single-qubit algebra)",
        not mismatches,
        f"16 ordered pairs vs real matrix arithmetic, mismatches={mismatches}",
    )
