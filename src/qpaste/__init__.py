"""One-error stabilizer codes: verification, pasting, catalog families.

Pauli products are kept in a bit-packed symplectic form with a real sign
convention, codes are ordered generator lists, and every construction is
machine-verified: weight-1 syndrome distinctness, exact bound arithmetic
and (for small n) a dense-statevector cross-check of the error-correction
conditions.
"""

from .pauli import (
    PauliOperator,
    PauliParseError,
    format_pauli,
    identity,
    multiply,
    parse_pauli,
)
from .stabilizer import (
    InvalidCodeError,
    StabilizerCode,
    ValidationReport,
    Violation,
    contains,
    validate,
)
from .verification import (
    BoundStatus,
    DistanceReport,
    best_k,
    check_code,
    distance,
    enumerate_errors,
    hamming_bound,
    iter_weight_errors,
    perfect_length,
    verify_distance3,
)
from .kl import (
    CapExceededError,
    KLReport,
    kl_check,
)
from .pasting import (
    PasteCheck,
    PasteDiagnostics,
    PasteError,
    PasteVerificationError,
    augment,
    can_paste,
    locate_xz_generators,
    paste,
)
from .catalog import builtin, hamming_class, perfect
from .files import StabilizerFileError, dumps, loads

__version__ = "0.1.0"

__all__ = [
    "PauliOperator",
    "PauliParseError",
    "format_pauli",
    "identity",
    "multiply",
    "parse_pauli",
    "InvalidCodeError",
    "StabilizerCode",
    "ValidationReport",
    "Violation",
    "contains",
    "validate",
    "BoundStatus",
    "DistanceReport",
    "best_k",
    "check_code",
    "distance",
    "enumerate_errors",
    "hamming_bound",
    "iter_weight_errors",
    "perfect_length",
    "verify_distance3",
    "CapExceededError",
    "KLReport",
    "kl_check",
    "PasteCheck",
    "PasteDiagnostics",
    "PasteError",
    "PasteVerificationError",
    "augment",
    "can_paste",
    "locate_xz_generators",
    "paste",
    "builtin",
    "hamming_class",
    "perfect",
    "StabilizerFileError",
    "dumps",
    "loads",
]
