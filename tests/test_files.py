import gc
import random
import sys

import pytest

from qpaste.catalog import builtin
from qpaste.files import StabilizerFileError, dumps, loads
from qpaste.pauli import identity
from qpaste.pasting import augment
from qpaste.stabilizer import validate


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
    padded = augment(builtin("code8"), 1, "append")
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
