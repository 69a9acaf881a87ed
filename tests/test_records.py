"""The record types: immutable values with fixed fields, defaults and checks."""

import pytest

from qpaste import (
    DistanceReport,
    KLReport,
    PasteCheck,
    PasteDiagnostics,
    PauliOperator,
    ValidationReport,
    Violation,
    parse_pauli,
)


def _kl_fields():
    import numpy as np

    return {
        "c_matrix": np.eye(2),
        "max_deviation": 0.0,
        "passed": True,
        "rank": 2,
        "full_rank": True,
    }


_X1, _Z1 = parse_pauli("XI"), parse_pauli("ZI")
_CHECK = {"name": "larger_valid", "ok": True, "detail": "valid"}
_VIOLATION = {"kind": "rank", "rows": (2,), "detail": "generator 2 is a product of earlier ones"}
_BAD_PAULI = [
    ({"n": 0, "x": 0, "z": 0}, "a Pauli operator needs at least one qubit"),
    ({"n": 2, "x": 4, "z": 0}, "bit vectors do not fit 2 qubits"),
    ({"n": 2, "x": 0, "z": -1}, "bit vectors do not fit 2 qubits"),
    ({"n": 2, "x": 1, "z": 2, "sign": 0}, "sign must be +1 or -1, got 0"),
]

# (type, fields by keyword in field order, fields left to their defaults,
#  whether it hashes, field sets the constructor refuses with their ValueError text)
RECORDS = [
    (PauliOperator, lambda: {"n": 2, "x": 1, "z": 2}, {"sign": 1}, True, _BAD_PAULI),
    (Violation, lambda: dict(_VIOLATION), {}, True, []),
    (
        ValidationReport,
        lambda: {"ok": False, "violations": (Violation(**_VIOLATION),)},
        {},
        True,
        [],
    ),
    (
        DistanceReport,
        lambda: {
            "ok": False,
            "degenerate": False,
            "distinct_count": 15,
            "error_count": 16,
            "witness": (_X1, _Z1),
            "degenerate_pairs": (),
        },
        {},
        True,
        [],
    ),
    (KLReport, _kl_fields, {}, False, []),
    (PasteCheck, lambda: dict(_CHECK), {}, True, []),
    (PasteDiagnostics, lambda: {"checks": (PasteCheck(**_CHECK),)}, {}, True, []),
]


@pytest.mark.parametrize(
    "record_type, fields, defaults, hashable, refused",
    RECORDS,
    ids=[case[0].__name__ for case in RECORDS],
)
def test_record_behaviour(record_type, fields, defaults, hashable, refused):
    values = fields()
    record = record_type(**values)
    assert all(getattr(record, name) is value for name, value in values.items())
    assert all(getattr(record, name) == value for name, value in defaults.items())
    for name, value in {**values, **defaults}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1

    twin = record_type(*values.values(), *defaults.values())
    assert twin == record and twin is not record
    if hashable:
        assert hash(twin) == hash(record)
    assert repr(record).startswith(f"{record_type.__name__}(")

    for bad, message in refused:
        with pytest.raises(ValueError) as excinfo:
            record_type(**bad)
        assert str(excinfo.value) == message
