"""Pasting two one-error codes into one larger code.

The larger code must contain the all-X and all-Z products in its group
(its first two rows are recombined to exactly those if needed); they are
extended trivially onto the new qubits, so errors on the original qubits
keep a nonzero two-bit syndrome prefix while errors on the new qubits get
the prefix 00 and are distinguished by the smaller code's generators,
which extend the remaining rows pairwise in row order.

Identity placeholder rows let generator counts be matched up: a template
with placeholders is not itself a valid code and is only legal as pasting
input.  The construction never applies to codes meant to correct two or
more simultaneous errors; a two-qubit error split across the seam would
look like an error on the original qubits alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from . import gf2
from .pauli import PauliOperator, identity, tensor
from .stabilizer import StabilizerCode, _check_rows, _pack, contains, validate
from .verification import verify_distance3

CHECK_LARGER_VALID = "larger_valid"
CHECK_SMALLER_VALID = "smaller_valid"
CHECK_LARGER_NONDEGENERATE = "larger_nondegenerate"
CHECK_SMALLER_NONDEGENERATE = "smaller_nondegenerate"
CHECK_XZ_ROWS = "xz_rows"
CHECK_GENERATOR_COUNT = "generator_count"
CHECK_PLACEHOLDER_PAIRING = "placeholder_pairing"


class PaddedCode:
    """Generator template whose all-identity rows are padding placeholders.

    The non-placeholder rows form the underlying code (``base``).  With
    ``pad_count`` > 0 the template is not a valid code by itself
    (independence fails) and is accepted only by the pasting operations.
    """

    def __init__(self, rows: Iterable[PauliOperator], n: int | None = None):
        rows = tuple(rows)
        self.n = _check_rows(rows, n, "row")
        self.rows = rows
        self.placeholder_flags = tuple([r.x == 0 and r.z == 0 for r in rows])
        self.pad_count = sum(self.placeholder_flags)

    @cached_property
    def base(self) -> StabilizerCode:
        return StabilizerCode(
            [r for r, flag in zip(self.rows, self.placeholder_flags) if not flag], n=self.n
        )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def as_code(self) -> StabilizerCode:
        """The underlying code; refuses templates that still carry padding."""
        if self.pad_count:
            raise ValueError(
                f"{self.pad_count} placeholder identity row(s) present; "
                "placeholders are only valid as pasting input"
            )
        return self.base

    def __repr__(self) -> str:
        return f"PaddedCode(n={self.n}, rows={self.row_count}, pad={self.pad_count})"


PasteInput = Union[StabilizerCode, PaddedCode]


def _as_padded(code: PasteInput) -> PaddedCode:
    if isinstance(code, PaddedCode):
        return code
    padded = PaddedCode(code.generators, code.n)
    if not padded.pad_count:
        # The code itself, so the checks cached on it are not redone.
        padded.base = code
    return padded


def augment(code: PasteInput, count: int, where: str = "append") -> PaddedCode:
    """Add ``count`` identity placeholder rows at one end of the row list.

    ``where`` is "append" (after the existing rows, the usual choice for
    the larger code) or "prepend" (before them, for padding a smaller
    code so that the leading rows of the larger one stay unextended).
    """
    if count < 0:
        raise ValueError("placeholder count must be non-negative")
    if where not in ("append", "prepend"):
        raise ValueError(f"unknown placement {where!r}, use 'append' or 'prepend'")
    padded = _as_padded(code)
    pads = (identity(padded.n),) * count
    rows = padded.rows + pads if where == "append" else pads + padded.rows
    return PaddedCode(rows, padded.n)


def locate_xz_generators(code: StabilizerCode) -> StabilizerCode | None:
    """Find the all-X and all-Z rows in the group, recombining if needed.

    Returns None unless both +X...X and +Z...Z are group members.  When the
    input's first two rows already match they are returned untouched;
    otherwise a group-equal basis is built with those two products as rows
    1 and 2, completed greedily from the original generators.
    """
    n = code.n
    ones = (1 << n) - 1
    x_row = PauliOperator(n, ones, 0, 1)
    z_row = PauliOperator(n, 0, ones, 1)
    if not (contains(code, x_row) and contains(code, z_row)):
        return None
    if code.a >= 2 and code.generators[0] == x_row and code.generators[1] == z_row:
        return code
    elim = gf2.Eliminator(2 * n, [_pack(x_row), _pack(z_row)])
    new_gens = [x_row, z_row]
    for g in code.generators:
        if elim.add(_pack(g)):
            new_gens.append(g)
    return StabilizerCode(new_gens, n)


@dataclass(frozen=True)
class PasteCheck:
    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {'pass' if self.ok else 'FAIL'} ({self.detail})"


@dataclass(frozen=True)
class PasteDiagnostics:
    """Named results of every pasting precondition."""

    checks: tuple[PasteCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed_names(self) -> tuple[str, ...]:
        return tuple([c.name for c in self.checks if not c.ok])

    def check(self, name: str) -> PasteCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class PasteError(ValueError):
    """Pasting preconditions failed; carries the full diagnostics."""

    def __init__(self, diagnostics: PasteDiagnostics):
        self.diagnostics = diagnostics
        names = ", ".join(diagnostics.failed_names())
        super().__init__(f"pasting preconditions failed: {names}")


class PasteVerificationError(RuntimeError):
    """Post-paste verification failed; should be unreachable for inputs
    that satisfy the preconditions, kept as a loud safety net."""


def _check_t(t: int) -> None:
    if t != 1:
        raise ValueError(
            "pasting is defined only for single-error codes (t=1): a "
            f"t={t} request is refused because an error split across the "
            "original and new qubits would be indistinguishable from one "
            "on the original qubits alone"
        )


def _one_error_checks(
    code: StabilizerCode, name_valid: str, name_nondeg: str
) -> list[PasteCheck]:
    """Whether ``code`` is valid with 3n+1 distinct weight-<=1 syndromes, as
    two named checks; the second is not evaluated when the first fails."""
    report = validate(code)
    if not report.ok:
        detail = "; ".join(str(v) for v in report.violations)
        skipped = "not evaluated (validation failed)"
        return [PasteCheck(name_valid, False, detail), PasteCheck(name_nondeg, False, skipped)]
    d3 = verify_distance3(code, allow_degenerate=False)
    if d3.ok:
        detail = f"{d3.distinct_count} distinct weight-<=1 syndromes"
    else:
        e, f = d3.witness
        detail = f"syndrome collision between {e} and {f}"
    return [
        PasteCheck(name_valid, True, f"{code.a} generators valid"),
        PasteCheck(name_nondeg, d3.ok, detail),
    ]


def _prove_one_error(code: StabilizerCode, error: type, subject: str) -> StabilizerCode:
    """Return ``code`` if it passes ``_one_error_checks``, else raise
    ``error`` naming ``subject`` and the first failed check."""
    for check in _one_error_checks(code, "validation", "the distance check"):
        if not check.ok:
            raise error(f"{subject} failed {check.name}: {check.detail}")
    return code


def _plan(
    larger: PasteInput, smaller: PasteInput, t: int
) -> tuple[PaddedCode, PaddedCode, PasteDiagnostics, StabilizerCode | None]:
    """Both templates, every precondition, and the larger code's located
    all-X/all-Z basis (None when it was not found or not looked for)."""
    _check_t(t)
    big = _as_padded(larger)
    small = _as_padded(smaller)
    checks = _one_error_checks(big.base, CHECK_LARGER_VALID, CHECK_LARGER_NONDEGENERATE)
    checks += _one_error_checks(small.base, CHECK_SMALLER_VALID, CHECK_SMALLER_NONDEGENERATE)

    located = None
    if any(big.placeholder_flags[:2]):
        checks.append(
            PasteCheck(
                CHECK_XZ_ROWS,
                False,
                "placeholder occupies row 1 or 2 of the larger template",
            )
        )
    else:
        located = locate_xz_generators(big.base)
        if located is None:
            checks.append(
                PasteCheck(
                    CHECK_XZ_ROWS,
                    False,
                    "the larger code's group does not contain both the all-X "
                    "and all-Z products",
                )
            )
        elif located is big.base:
            checks.append(PasteCheck(CHECK_XZ_ROWS, True, "rows 1 and 2 as given"))
        else:
            checks.append(
                PasteCheck(CHECK_XZ_ROWS, True, "available after recombination")
            )

    want = big.row_count - 2
    have = small.row_count
    checks.append(
        PasteCheck(
            CHECK_GENERATOR_COUNT,
            want == have,
            f"larger rows - 2 = {want}, smaller rows = {have}",
        )
    )

    overlap = [
        i + 3
        for i, (bf, sf) in enumerate(zip(big.placeholder_flags[2:], small.placeholder_flags))
        if bf and sf
    ]
    checks.append(
        PasteCheck(
            CHECK_PLACEHOLDER_PAIRING,
            not overlap,
            "no placeholder pairs a placeholder"
            if not overlap
            else f"placeholder pairs placeholder at row(s) {overlap}",
        )
    )
    return big, small, PasteDiagnostics(tuple(checks)), located


def can_paste(larger: PasteInput, smaller: PasteInput, *, t: int = 1) -> PasteDiagnostics:
    """Run every pasting precondition without constructing the output."""
    return _plan(larger, smaller, t)[2]


def paste(larger: PasteInput, smaller: PasteInput, *, t: int = 1) -> StabilizerCode:
    """Paste a smaller nondegenerate code onto a larger one.

    Output rows: the larger code's all-X and all-Z rows extended by
    identity, then row i+2 of the larger template tensored with row i of
    the smaller one, in row order.  The result is validated and its
    weight-1 syndromes checked before it is returned, so callers need not
    check it again.
    """
    big, small, diagnostics, located = _plan(larger, smaller, t)
    if not diagnostics.ok:
        raise PasteError(diagnostics)
    # Placeholder rows are the identity, so this is big.rows when the basis is as given.
    basis = iter(located.generators)
    filled = [identity(big.n) if flag else next(basis) for flag in big.placeholder_flags]
    extension = (identity(small.n),) * 2 + small.rows
    result = StabilizerCode([tensor(b, s) for b, s in zip(filled, extension)])

    return _prove_one_error(result, PasteVerificationError, "pasted code")
