"""Pasting two one-error codes into one larger code.

The larger code must contain the all-X and all-Z products in its group
(its first two rows are recombined to exactly those if needed); they are
extended trivially onto the new qubits, so errors on the original qubits
keep a nonzero two-bit syndrome prefix while errors on the new qubits get
the prefix 00 and are distinguished by the smaller code's generators,
which extend the remaining rows pairwise in row order.

Identity placeholder rows let generator counts be matched up: a template
is an ordinary :class:`StabilizerCode` whose all-identity rows are
placeholders.  With any, it fails :func:`validate` (rank) and is legal
only as pasting input, whose checks see the code without them.  The
construction never applies to codes meant to correct two or more
simultaneous errors; a two-qubit error split across the seam would look
like an error on the original qubits alone.
"""

from __future__ import annotations

from typing import NamedTuple

from . import gf2
from .pauli import PauliOperator, identity, tensor
from .stabilizer import StabilizerCode, _pack, contains, validate
from .verification import verify_distance3

CHECK_LARGER_VALID = "larger_valid"
CHECK_SMALLER_VALID = "smaller_valid"
CHECK_LARGER_NONDEGENERATE = "larger_nondegenerate"
CHECK_SMALLER_NONDEGENERATE = "smaller_nondegenerate"
CHECK_XZ_ROWS = "xz_rows"
CHECK_GENERATOR_COUNT = "generator_count"
CHECK_PLACEHOLDER_PAIRING = "placeholder_pairing"


def _placeholders(code: StabilizerCode) -> list[bool]:
    """One flag per row of ``code``: whether it is an identity placeholder."""
    return [not row for row in code._packed]


def _base(code: StabilizerCode, flags: list[bool]) -> StabilizerCode:
    """``code`` without its flagged rows; ``code`` itself when none is flagged,
    so the checks cached on it are not redone."""
    if not any(flags):
        return code
    return StabilizerCode([g for g, flag in zip(code.generators, flags) if not flag], code.n)


def augment(code: StabilizerCode, count: int) -> StabilizerCode:
    """Append ``count`` identity placeholder rows after the existing rows.

    A template padded in front, so that the leading rows of the larger code
    stay unextended, is the code with leading identity rows:
    ``StabilizerCode((identity(n),) + code.generators, n)``, or a file whose
    first row is all I.
    """
    if count < 0:
        raise ValueError("placeholder count must be non-negative")
    return StabilizerCode(code.generators + (identity(code.n),) * count, code.n)


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


class PasteCheck(NamedTuple):
    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {'pass' if self.ok else 'FAIL'} ({self.detail})"


class PasteDiagnostics(NamedTuple):
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
    larger: StabilizerCode, smaller: StabilizerCode
) -> tuple[list[bool], PasteDiagnostics, StabilizerCode | None]:
    """The larger template's placeholder flags, every precondition, and its
    located all-X/all-Z basis (None when it was not found or not looked for)."""
    big_flags = _placeholders(larger)
    small_flags = _placeholders(smaller)
    big = _base(larger, big_flags)
    checks = _one_error_checks(big, CHECK_LARGER_VALID, CHECK_LARGER_NONDEGENERATE)
    checks += _one_error_checks(
        _base(smaller, small_flags), CHECK_SMALLER_VALID, CHECK_SMALLER_NONDEGENERATE
    )

    located = None
    if any(big_flags[:2]):
        detail = "placeholder occupies row 1 or 2 of the larger template"
    elif (located := locate_xz_generators(big)) is None:
        detail = "the larger code's group does not contain both the all-X and all-Z products"
    elif located is big:
        detail = "rows 1 and 2 as given"
    else:
        detail = "available after recombination"
    checks.append(PasteCheck(CHECK_XZ_ROWS, located is not None, detail))

    want = larger.a - 2
    have = smaller.a
    checks.append(
        PasteCheck(
            CHECK_GENERATOR_COUNT,
            want == have,
            f"larger rows - 2 = {want}, smaller rows = {have}",
        )
    )

    overlap = [
        i + 3
        for i, (bf, sf) in enumerate(zip(big_flags[2:], small_flags))
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
    return big_flags, PasteDiagnostics(tuple(checks)), located


def can_paste(larger: StabilizerCode, smaller: StabilizerCode) -> PasteDiagnostics:
    """Run every pasting precondition without constructing the output."""
    return _plan(larger, smaller)[1]


def paste(larger: StabilizerCode, smaller: StabilizerCode) -> StabilizerCode:
    """Paste a smaller nondegenerate code onto a larger one.

    Output rows: the larger code's all-X and all-Z rows extended by
    identity, then row i+2 of the larger template tensored with row i of
    the smaller one, in row order.  The result is validated and its
    weight-1 syndromes checked before it is returned, so callers need not
    check it again.
    """
    flags, diagnostics, located = _plan(larger, smaller)
    if not diagnostics.ok:
        raise PasteError(diagnostics)
    # Placeholder rows are the identity, so this is larger's rows when the basis is as given.
    basis = iter(located.generators)
    filled = [identity(larger.n) if flag else next(basis) for flag in flags]
    extension = (identity(smaller.n),) * 2 + smaller.generators
    result = StabilizerCode([tensor(b, s) for b, s in zip(filled, extension)])

    return _prove_one_error(result, PasteVerificationError, "pasted code")
