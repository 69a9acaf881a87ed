"""The public surface: the exported names, the retired ones, and the README's examples."""

import re
from pathlib import Path

import pytest

import qpaste
from qpaste import gf2
from qpaste.stabilizer import StabilizerCode

PUBLIC = [
    "BoundStatus",
    "CapExceededError",
    "DistanceReport",
    "InvalidCodeError",
    "KLReport",
    "PasteCheck",
    "PasteDiagnostics",
    "PasteError",
    "PasteVerificationError",
    "PauliOperator",
    "PauliParseError",
    "StabilizerCode",
    "StabilizerFileError",
    "ValidationReport",
    "Violation",
    "augment",
    "best_k",
    "builtin",
    "can_paste",
    "check_code",
    "contains",
    "distance",
    "dumps",
    "enumerate_errors",
    "format_pauli",
    "hamming_bound",
    "hamming_class",
    "identity",
    "iter_weight_errors",
    "kl_check",
    "loads",
    "locate_xz_generators",
    "multiply",
    "parse_pauli",
    "paste",
    "perfect",
    "perfect_length",
    "validate",
    "verify_distance3",
]

RETIRED = [
    "Syndrome",
    "syndrome",
    "canonical_generators",
    "group_equal",
    "adjoint",
    "square_sign",
    "weight",
    "apply_pauli",
    "codewords",
    "Codespace",
    "ErrorSet",
    "is_perfect",
    "parameters",
    "CodeParameters",
    "entries",
    "CatalogEntry",
    "PaddedCode",
    "commutes",
    "tensor",
    "y_count",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned():
    assert len(PUBLIC) == 39
    assert sorted(qpaste.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qpaste, name) is not None


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_does_not_import(name):
    with pytest.raises(ImportError):
        exec(f"from qpaste import {name}", {})


def test_retired_members_are_gone():
    assert not hasattr(gf2, "rank") and not hasattr(gf2, "rref")
    assert not hasattr(StabilizerCode, "syndrome_table")
    assert "tolerance" not in qpaste.KLReport._fields
    assert not hasattr(qpaste.PauliOperator, "factor")
    assert not hasattr(qpaste.PasteDiagnostics, "check")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
