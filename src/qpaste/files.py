"""Line-oriented stabilizer file format.

One generator per line in Pauli text form, all lines the same length.
Blank lines and lines starting with '#' are ignored, as is one UTF-8
byte-order mark before the first line.  A line of all 'I' is accepted
as a placeholder row: a template for pasting is a code whose identity
rows are placeholders, read and written like any other code.
"""

from __future__ import annotations

from .pauli import PauliParseError, _format_row, _parse_row
from .stabilizer import StabilizerCode


class StabilizerFileError(ValueError):
    """Raised for malformed stabilizer files."""


def loads(text: str) -> StabilizerCode:
    """Parse file content into a code, placeholder rows kept in place.

    Each row is read straight into its packed form; the code builds its
    generators from those rows only when they are read.
    """
    text = text.removeprefix("\ufeff")
    rows = []
    n = None
    first_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            width, row, sign = _parse_row(line)
        except PauliParseError as exc:
            raise StabilizerFileError(f"line {lineno}: {exc}") from exc
        if sign != 1:
            raise StabilizerFileError(
                f"line {lineno}: generator rows must not carry a minus sign"
            )
        if n is None:
            n = width
            first_line = lineno
        elif width != n:
            raise StabilizerFileError(
                f"line {lineno}: row length {width} differs from length {n} "
                f"of line {first_line}"
            )
        rows.append(row)
    if not rows:
        raise StabilizerFileError("no generator rows found")
    return StabilizerCode((), n, _rows=rows)


def dumps(code: StabilizerCode) -> str:
    """Render a code, one generator per line."""
    return "\n".join([_format_row(code.n, row) for row in code._packed]) + "\n"
