import gc
import io
import pickle
import random
import sys

import pytest

from qpaste.catalog import builtin, hamming_class, perfect
from qpaste.cli import main
from qpaste.files import StabilizerFileError, dumps, loads
from qpaste.pauli import PauliOperator, format_pauli, identity, parse_pauli
from qpaste.pasting import augment
from qpaste.stabilizer import StabilizerCode, validate
from qpaste.verification import check_code, verify_distance3

from helpers import reference_violations


def test_round_trip():
    text = dumps(builtin("code13"))
    again = loads(text)
    assert again == builtin("code13")
    assert dumps(again) == text


def test_comments_and_blank_lines():
    text = "# the five-qubit code\n\nXXZIZ\nZXXZI\n# middle note\nIZXXZ\nZIZXX\n\n"
    assert loads(text) == builtin("code5")


def test_placeholder_rows_detected():
    text = "XXZIZ\nZXXZI\nIZXXZ\nZIZXX\nIIIII\n"
    padded = loads(text)
    assert padded.a == 5 and padded.generators.count(identity(5)) == 1
    assert padded.generators[:4] == builtin("code5").generators
    # The placeholder makes the rows dependent, so they are no code by themselves.
    assert not validate(padded).ok


def test_padded_round_trip():
    padded = augment(builtin("code8"), 1)
    assert dumps(loads(dumps(padded))) == dumps(padded)


def test_ragged_lines_rejected():
    with pytest.raises(StabilizerFileError, match="line 2"):
        loads("XXZIZ\nZXX\n")


def test_bad_character_rejected():
    with pytest.raises(StabilizerFileError, match="line 1"):
        loads("XXAIZ\n")


def test_leading_byte_order_mark_skipped():
    text = dumps(builtin("code5"))
    assert loads("\ufeff" + text) == loads(text) == builtin("code5")
    assert loads("\ufeff# a comment\n" + text) == builtin("code5")


def test_only_one_leading_byte_order_mark_skipped():
    # A second mark is a bad character on line 1; one on a later line is
    # refused the same way (tests/test_cli.py).
    with pytest.raises(StabilizerFileError, match=r"line 1: invalid character '\\ufeff'"):
        loads("\ufeff\ufeff" + dumps(builtin("code5")))


# str.splitlines breaks at these too; a row ends only at LF, CR LF or CR.
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
def test_other_line_breaks_are_invalid_characters(char):
    with pytest.raises(StabilizerFileError) as info:
        loads(f"XXZIZ{char}ZXXZI\nIZXXZ\nZIZXX\n")
    assert str(info.value) == f"line 1: invalid character {char!r} at position 6"
    # The character's own line is named, not a line counted past it.
    with pytest.raises(StabilizerFileError) as info:
        loads(f"XXZIZ\nZXXZI{char}Q\nIZXXZ\nZIZXX\n")
    assert str(info.value) == f"line 2: invalid character {char!r} at position 6"


def test_line_numbers_count_lf_crlf_and_cr_alike():
    with pytest.raises(StabilizerFileError, match="^line 4: invalid character 'Q'"):
        loads("XXZIZ\r\nZXXZI\rIZXXZ\nZIZXQ\r\n")
    with pytest.raises(StabilizerFileError, match="^line 3: invalid character 'Q'"):
        loads("XXZIZ\r\rZXXQI\n")


def test_signed_row_rejected():
    with pytest.raises(StabilizerFileError, match="minus"):
        loads("XXZIZ\n-ZXXZI\n")


def test_empty_file_rejected():
    with pytest.raises(StabilizerFileError, match="no generator"):
        loads("# only a comment\n\n")


def test_loads_keeps_no_blocks_between_calls():
    # Parsing holds nothing once its result is dropped, so repeated calls do
    # not grow the interpreter's allocated blocks (or a long run's RSS).
    rng = random.Random(5)
    texts = [
        "".join("".join(rng.choice("IXYZ") for _ in range(n)) + "\n" for _ in range(rows))
        for n, rows in ((rng.randint(3, 20), rng.randint(3, 15)) for _ in range(40))
    ]
    for text in texts:
        loads(text)
    gc.collect()
    before = sys.getallocatedblocks()
    for i in range(20_000):
        loads(texts[i % len(texts)])
    gc.collect()
    assert sys.getallocatedblocks() - before < 1_000


def _reference(rows: list[str]) -> StabilizerCode:
    """The code built from operators, one parse_pauli per row."""
    return StabilizerCode([parse_pauli(r) for r in rows])


def _random_text(rng: random.Random, rows: list[str]) -> str:
    """``rows`` as a file: signs, comments, blank lines, a BOM, mixed line ends."""
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(["# a comment", "#IXYZ", "", "   ", "\t"]))
        pad = rng.choice(["", "", " ", "\t"])
        lines.append(pad + rng.choice(["", "+"]) + row + pad)
    ends = [rng.choice(["\n", "\r\n", "\r"]) for _ in lines]
    return rng.choice(["", "\ufeff"]) + "".join(a + b for a, b in zip(lines, ends))


def _assert_same_code(code: StabilizerCode, ref: StabilizerCode) -> None:
    # The rows' own checks first, before ``code.generators`` is built.
    assert code.n == ref.n and code.a == ref.a
    assert code._packed == ref._packed
    assert type(code._syndrome_keys) is type(ref._syndrome_keys)
    assert code._syndrome_keys == ref._syndrome_keys
    assert validate(code) == validate(ref)
    assert code == ref and hash(code) == hash(ref)
    assert "generators" not in vars(code)
    assert code.generators == ref.generators
    assert dumps(code) == dumps(ref)
    assert dumps(code) == "".join(format_pauli(g) + "\n" for g in code.generators)


def test_loads_matches_codes_built_from_operators():
    # n = 1..130 and a = 1..70: across 8-row groups and past the 64 rows
    # whose keys are one array.
    rng = random.Random(34)
    for _ in range(300):
        n, a = rng.randint(1, 130), rng.randint(1, 70)
        rows = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(a)]
        _assert_same_code(loads(_random_text(rng, rows)), _reference(rows))


@pytest.mark.parametrize("code", [builtin("code13"), perfect(3), hamming_class(7)], ids=repr)
def test_loads_matches_valid_codes_built_from_operators(code):
    rows = dumps(code).split()
    loaded = loads(_random_text(random.Random(code.n), rows))
    _assert_same_code(loaded, _reference(rows))
    assert validate(loaded).ok


# loads' diagnostics, word for word as before rows were read straight into
# packed form.
PARSE_FAILURES = [
    ("+\n", "line 1: empty Pauli string"),
    ("-XZ\n", "line 1: generator rows must not carry a minus sign"),
    ("\u2212XZ\n", "line 1: generator rows must not carry a minus sign"),
    ("+XQ\n", "line 1: invalid character 'Q' at position 2"),
    ("X\udcffZ\n", "line 1: invalid character '\\udcff' at position 2"),
    ("+XXZIZ\nZXX\n", "line 2: row length 3 differs from length 5 of line 1"),
    ("# only a comment\n\n", "no generator rows found"),
]


@pytest.mark.parametrize("text, message", PARSE_FAILURES)
def test_loads_diagnostics(text, message):
    with pytest.raises(StabilizerFileError) as info:
        loads(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", PARSE_FAILURES)
def test_verify_stdin_prints_the_loads_diagnostic(text, message, monkeypatch, capsys):
    data = text.encode("utf-8", "surrogateescape")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["verify", "-"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_builds_no_operator_for_a_loaded_code():
    code = loads(dumps(perfect(3)))
    assert "generators" not in vars(code)
    assert all(passed for _, passed in check_code(code, None, False))
    assert "generators" not in vars(code)


def test_generators_are_built_once_on_first_read():
    code = loads(dumps(perfect(2)))
    first = code.generators
    assert code.generators is first
    assert first == perfect(2).generators
    assert all(type(g) is PauliOperator for g in first)


@pytest.mark.parametrize("read_first", [False, True])
def test_loaded_code_survives_a_pickle_round_trip(read_first):
    # A code built from operators keeps only their packed rows too.
    for code in (loads(dumps(perfect(3))), StabilizerCode(perfect(3).generators)):
        assert "generators" not in vars(code)
        if read_first:
            code.generators
        copy = pickle.loads(pickle.dumps(code))
        assert ("generators" in vars(copy)) == read_first
        assert copy == code and hash(copy) == hash(code)
        assert copy.generators == code.generators == perfect(3).generators
        assert verify_distance3(copy) == verify_distance3(code)


def test_loaded_code_equals_the_code_of_its_generators():
    code = loads(dumps(hamming_class(5)))
    again = StabilizerCode(code.generators)
    assert code == again and hash(code) == hash(again)
    assert again._packed == code._packed


@pytest.mark.parametrize(
    "rows, kind",
    [
        (["YII", "ZZI"], "square"),
        (["XI", "ZI"], "anticommute"),
        (["XX", "ZZ", "YY"], "rank"),
        (["XXZIZ", "ZXXZI", "IZXXZ", "ZIZXX", "IIIII"], "rank"),
        (["YXI", "ZYZ", "XXI", "YXI"], "square"),
    ],
)
def test_invalid_loaded_codes_get_the_reference_violations(rows, kind):
    report = validate(loads("\n".join(rows)))
    assert not report.ok and kind in {v.kind for v in report.violations}
    assert report.violations == reference_violations(_reference(rows))
