import hashlib
import random

import pytest

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.files import dumps, loads
from qpaste.pauli import (
    PauliOperator,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
)
from qpaste.pasting import (
    CHECK_GENERATOR_COUNT,
    CHECK_PLACEHOLDER_PAIRING,
    CHECK_SMALLER_NONDEGENERATE,
    CHECK_SMALLER_VALID,
    CHECK_XZ_ROWS,
    PasteError,
    PasteVerificationError,
    augment,
    can_paste,
    _base,
    _placeholders,
    locate_xz_generators,
    paste,
)
from qpaste.stabilizer import StabilizerCode, validate
from qpaste.verification import verify_distance3

from helpers import (
    anticommutes,
    degenerate_code6,
    fail_distance3_on,
    fail_validation_on,
    paste_sample,
    same_group,
    shuffled_qubits,
    syndrome,
)


def _named(diag, name):
    """The check called ``name`` among ``diag.checks``."""
    (check,) = [c for c in diag.checks if c.name == name]
    return check


def test_augment_append():
    padded = augment(builtin("code8"), 1)
    assert isinstance(padded, StabilizerCode) and (padded.n, padded.a) == (8, 6)
    assert padded.generators == builtin("code8").generators + (identity(8),)
    assert _placeholders(padded) == [False] * 5 + [True]
    assert _base(padded, _placeholders(padded)) == builtin("code8")
    # The placeholder is a product of no rows, so the template is no code by itself.
    assert [(v.kind, v.rows) for v in validate(padded).violations] == [("rank", (6,))]


def test_augment_zero_and_prepend():
    unchanged = augment(builtin("code5"), 0)
    assert unchanged == builtin("code5") and not any(_placeholders(unchanged))
    two = augment(builtin("code5"), 2)
    assert two.a == 6 and _placeholders(two) == [False] * 4 + [True] * 2
    # Padding in front is a leading identity row, which is a placeholder too.
    front = StabilizerCode((identity(5),) + builtin("code5").generators, 5)
    assert _placeholders(front) == [True] + [False] * 4
    assert _base(front, _placeholders(front)) == builtin("code5")


def test_base_of_a_plain_code_is_the_code_itself():
    # The same object, so the checks cached on it are not redone.
    code = builtin("code13")
    assert _base(code, _placeholders(code)) is code


def test_augment_argument_checks():
    with pytest.raises(ValueError):
        augment(builtin("code5"), -1)


def test_locate_xz_untouched():
    code = builtin("code8")
    assert locate_xz_generators(code) is code
    hc = hamming_class(4)
    assert locate_xz_generators(hc) is hc


def test_locate_xz_not_found_code13():
    assert locate_xz_generators(builtin("code13")) is None


def test_locate_xz_not_found_code5_exhaustive_oracle():
    # Oracle: XOR every one of the 16 generator subsets and compare bits.
    code = builtin("code5")
    assert locate_xz_generators(code) is None
    targets = {(0b11111, 0), (0, 0b11111)}
    reachable = set()
    for mask in range(16):
        x = z = 0
        for i in range(4):
            if (mask >> i) & 1:
                x ^= code.generators[i].x
                z ^= code.generators[i].z
        reachable.add((x, z))
    assert not (targets & reachable)


def test_locate_xz_recombines():
    g = list(builtin("code8").generators)
    variant = StabilizerCode([multiply(g[0], g[1]), g[1], g[2], g[3], g[4]])
    located = locate_xz_generators(variant)
    assert located is not variant
    assert format_pauli(located.generators[0]) == "X" * 8
    assert format_pauli(located.generators[1]) == "Z" * 8
    assert same_group(located, variant)


def test_paste_reproduces_code13():
    out = paste(augment(builtin("code8"), 1), builtin("code5"))
    assert out == builtin("code13")
    rows = [format_pauli(g) for g in out.generators]
    assert rows == [
        "XXXXXXXXIIIII",
        "ZZZZZZZZIIIII",
        "XIXIZYZYXXZIZ",
        "XIYZXIYZZXXZI",
        "XZIYIYXZIZXXZ",
        "IIIIIIIIZIZXX",
    ]


def test_paste_refuses_an_output_that_fails_its_distance_check(monkeypatch):
    fail_distance3_on(monkeypatch, 13)
    with pytest.raises(PasteVerificationError) as excinfo:
        paste(augment(builtin("code8"), 1), builtin("code5"))
    assert str(excinfo.value) == (
        "pasted code failed the distance check: syndrome collision between "
        "XIIIIIIIIIIII and ZIIIIIIIIIIII"
    )


def test_paste_refuses_an_output_that_fails_validation(monkeypatch):
    fail_validation_on(monkeypatch, 13)
    with pytest.raises(PasteVerificationError) as excinfo:
        paste(augment(builtin("code8"), 1), builtin("code5"))
    assert str(excinfo.value) == (
        "pasted code failed validation: anticommute (1, 3): rows anticommute; "
        "rank (2,): row depends on earlier rows"
    )


def test_paste_deterministic():
    first = paste(augment(builtin("code8"), 1), builtin("code5"))
    second = paste(augment(builtin("code8"), 1), builtin("code5"))
    assert first == second


def test_paste_16_plus_5():
    out = paste(hamming_class(4), builtin("code5"))
    assert (out.n, out.a, out.n - out.a) == (21, 6, 15)
    assert validate(out).ok and verify_distance3(out).ok


def test_paste_after_recombination():
    g = list(builtin("code8").generators)
    variant = StabilizerCode([multiply(g[0], g[1]), g[1], g[2], g[3], g[4]])
    out = paste(augment(variant, 1), builtin("code5"))
    assert (out.n, out.a) == (13, 6)
    assert format_pauli(out.generators[0]) == "X" * 8 + "I" * 5
    assert format_pauli(out.generators[1]) == "Z" * 8 + "I" * 5
    assert verify_distance3(out).ok


def test_paste_padded_smaller():
    code5 = builtin("code5")
    out = paste(augment(hamming_class(4), 1), StabilizerCode((identity(5),) + code5.generators, 5))
    assert (out.n, out.a, out.n - out.a) == (21, 7, 14)
    # SHA-256 of the pasted rows as text: front padding changes no row.
    digest = hashlib.sha256(dumps(out).encode()).hexdigest()
    assert digest == "0627702d879080c9cdbcace87dfbf612a9a613060c95a58325aaea6785e24089"
    assert verify_distance3(out).ok
    # the first smaller slot was a placeholder: row 3 is unextended
    assert format_pauli(out.generators[2]).endswith("IIIII")


def test_paste_wrong_direction_fails():
    with pytest.raises(PasteError) as excinfo:
        paste(builtin("code5"), builtin("code8"))
    failed = excinfo.value.diagnostics.failed_names()
    assert CHECK_GENERATOR_COUNT in failed and CHECK_XZ_ROWS in failed


def test_can_paste_ok():
    diag = can_paste(augment(builtin("code8"), 1), builtin("code5"))
    assert diag.ok and diag.failed_names() == ()
    assert all(check.ok for check in diag.checks)


def test_can_paste_missing_xz_rows():
    diag = can_paste(builtin("code13"), builtin("code5"))
    assert not diag.ok
    assert diag.failed_names() == (CHECK_XZ_ROWS,)


def test_can_paste_count_mismatch():
    diag = can_paste(augment(builtin("code8"), 2), builtin("code5"))
    assert diag.failed_names() == (CHECK_GENERATOR_COUNT,)
    assert "5" in _named(diag, CHECK_GENERATOR_COUNT).detail


def test_can_paste_degenerate_smaller_isolated():
    # 7 larger rows so the count matches the degenerate code's 5 generators.
    diag = can_paste(augment(builtin("code8"), 2), degenerate_code6())
    assert diag.failed_names() == (CHECK_SMALLER_NONDEGENERATE,)
    assert "collision" in _named(diag, CHECK_SMALLER_NONDEGENERATE).detail


def test_can_paste_degenerate_smaller_also_with_count_mismatch():
    diag = can_paste(augment(builtin("code8"), 1), degenerate_code6())
    assert CHECK_SMALLER_NONDEGENERATE in diag.failed_names()


def test_can_paste_invalid_smaller():
    broken = StabilizerCode([parse_pauli("XXXXX"), parse_pauli("ZIIII")])
    diag = can_paste(augment(builtin("code8"), 0), broken)
    assert CHECK_SMALLER_VALID in diag.failed_names()
    assert "not evaluated" in _named(diag, CHECK_SMALLER_NONDEGENERATE).detail


def test_can_paste_placeholder_pairing():
    diag = can_paste(
        augment(hamming_class(4), 1),
        augment(builtin("code5"), 1),
    )
    assert diag.failed_names() == (CHECK_PLACEHOLDER_PAIRING,)


def test_can_paste_leading_placeholder():
    code8 = builtin("code8")
    diag = can_paste(StabilizerCode((identity(8),) + code8.generators, 8), builtin("code5"))
    assert diag.failed_names() == (CHECK_XZ_ROWS,)
    assert "row 1 or 2" in _named(diag, CHECK_XZ_ROWS).detail


def _split_expectations(output, larger_n, smaller_rows):
    """Check the syndrome split between original and new qubits."""
    n_small = output.n - larger_n
    for i in range(larger_n):
        for x_bit, z_bit, prefix in (
            (1, 0, (0, 1)),
            (0, 1, (1, 0)),
            (1, 1, (1, 1)),
        ):
            err = PauliOperator(output.n, x_bit << i, z_bit << i)
            assert syndrome(output, err).bits[:2] == prefix
    for i in range(n_small):
        for x_bit, z_bit in ((1, 0), (0, 1), (1, 1)):
            err = PauliOperator(output.n, (x_bit << (larger_n + i)), (z_bit << (larger_n + i)))
            bits = syndrome(output, err).bits
            assert bits[:2] == (0, 0)
            small_err = PauliOperator(n_small, x_bit << i, z_bit << i)
            expected = tuple(anticommutes(row, small_err) for row in smaller_rows)
            assert bits[2:] == expected


def test_syndrome_split_golden():
    out = paste(augment(builtin("code8"), 1), builtin("code5"))
    _split_expectations(out, 8, builtin("code5").generators)


def test_closure_property_samples():
    rng = random.Random(47)
    for i in range(24):
        larger, smaller = paste_sample(rng, i)
        out = paste(larger, smaller)
        assert validate(out).ok
        report = verify_distance3(out)
        assert report.ok and not report.degenerate
        assert out.n == larger.n + smaller.n
        assert out.a == larger.a
        _split_expectations(out, larger.n, smaller.generators)


def test_paste_accepts_plain_codes_for_both_sides():
    out = paste(hamming_class(4), shuffled_qubits(random.Random(53), builtin("code5")))
    assert (out.n, out.a) == (21, 6)


def test_paste_catalog_and_dumps_build_no_operator_per_row(monkeypatch):
    # Codes are rows: a paste builds only locate_xz_generators' two membership
    # probes, and a constructed family member or a written code builds none.
    code8, code5 = loads(dumps(builtin("code8"))), loads(dumps(builtin("code5")))
    g = hamming_class(4).generators
    # Rows 1 and 2 swapped: paste recombines them before it extends the rest.
    swapped = StabilizerCode((g[1], g[0]) + g[2:])
    expected = perfect(2)
    built = []
    post_init = PauliOperator.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PauliOperator, "__post_init__", counted)
    pasted = paste(augment(code8, 1), code5)
    assert len(built) <= 2
    built.clear()
    recombined = paste(swapped, code5)
    assert len(built) <= 2
    built.clear()
    family = hamming_class(5, mixer=[0b00010, 0b00100, 0b01000, 0b10000, 0b00101])
    for code in (pasted, recombined, family):
        dumps(code)
    assert built == []
    monkeypatch.undo()
    assert pasted == builtin("code13") and recombined == expected
