"""Line-oriented stabilizer file format.

One generator per line in Pauli text form, all lines the same length.
Blank lines and lines starting with '#' are ignored, as is one UTF-8
byte-order mark before the first line.  A line of all 'I' is accepted
and marks a placeholder row, so parsing always yields a padding-aware
template; plain codes are templates with pad_count 0.
"""

from __future__ import annotations

from .pauli import PauliParseError, format_pauli, parse_pauli
from .pasting import PaddedCode
from .stabilizer import StabilizerCode


class StabilizerFileError(ValueError):
    """Raised for malformed stabilizer files."""


def loads(text: str) -> PaddedCode:
    """Parse file content into a generator template."""
    text = text.removeprefix("\ufeff")
    rows = []
    n = None
    first_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = parse_pauli(line)
        except PauliParseError as exc:
            raise StabilizerFileError(f"line {lineno}: {exc}") from exc
        if row.sign != 1:
            raise StabilizerFileError(
                f"line {lineno}: generator rows must not carry a minus sign"
            )
        if n is None:
            n = row.n
            first_line = lineno
        elif row.n != n:
            raise StabilizerFileError(
                f"line {lineno}: row length {row.n} differs from length {n} "
                f"of line {first_line}"
            )
        rows.append(row)
    if not rows:
        raise StabilizerFileError("no generator rows found")
    return PaddedCode(rows)


def dumps(code: StabilizerCode | PaddedCode) -> str:
    """Render a code or template, one generator per line."""
    rows = code.rows if isinstance(code, PaddedCode) else code.generators
    return "\n".join(format_pauli(r) for r in rows) + "\n"
