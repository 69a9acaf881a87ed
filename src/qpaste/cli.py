"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 precondition or
diagnostic failure (including usage errors), 3 I/O or parse error
(undecodable input included).
Reports are byte-deterministic for fixed inputs; '-' means standard
input/output.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import files
from .catalog import _BUILTINS, builtin, hamming_class, perfect
from .pasting import PasteError, PasteVerificationError, _placeholders, augment, paste
from .pauli import format_pauli
from .verification import _perfect_tag, best_k, check_code, enumerate_errors, hamming_bound

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2
EXIT_IO = 3

# `bound n k` prints both sides in decimal up to this many digits (CPython's
# default int-to-str limit), and past it only their formulas.
_MAX_DECIMAL_DIGITS = 4300
_DECIMAL_LIMIT = 10**_MAX_DECIMAL_DIGITS


def _read_text(path: str) -> str:
    # Standard input is decoded as a file is, whatever its stream's encoding:
    # UTF-8, with undecodable bytes kept as lone surrogates that the parser
    # rejects with a line number.  A text-only stream (no .buffer) is read as text.
    if path != "-":
        return Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    if sys.stdin is None:
        raise OSError("standard input is closed")
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        return sys.stdin.read()
    return buffer.read().decode("utf-8", "surrogateescape")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        if sys.stdout is None:
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _say(line: str) -> None:
    """One line of a report on standard output, refused if the stream is closed."""
    _write_text("-", f"{line}\n")


def _note(line: str) -> None:
    """One line on standard error, dropped if the stream is closed or fails,
    so the exit code stays the command's own."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(f"{line}\n")
        except OSError:
            pass


def _fail(message: str) -> None:
    _note(f"error: {message}")


def cmd_verify(args: argparse.Namespace) -> int:
    code = files.loads(_read_text(args.file))
    pads = sum(_placeholders(code))
    if pads:
        _fail(
            f"file contains {pads} placeholder identity row(s); "
            "placeholders are only valid as paste input (add them with "
            "`paste --augment` instead)"
        )
        _say("result: fail")
        return EXIT_VERIFY
    _say(f"n={code.n} a={code.a} k={code.n - code.a}")
    ok = True
    for line, passed in check_code(code, args.distance, args.kl):
        _say(line)
        ok = ok and passed
    _say(f"result: {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_paste(args: argparse.Namespace) -> int:
    larger = files.loads(_read_text(args.larger))
    smaller = files.loads(_read_text(args.smaller))
    if args.augment:
        larger = augment(larger, args.augment)
    result = paste(larger, smaller)
    _write_text(args.out, files.dumps(result))
    k = result.n - result.a
    _note(f"pasted: n={result.n} a={result.a} k={k}")
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    _write_text(args.out, files.dumps(builtin(args.name)))
    return EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    if args.kind == "hamming":
        code = hamming_class(args.m)
    else:
        code = perfect(args.j, j_max=args.max_j)
    _write_text(args.out, files.dumps(code))
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    n = args.n
    if args.k is None:
        k = best_k(n)
        if k is None:
            _say(f"best k = none (no k satisfies the bound for n={n})")
        else:
            _say(f"best k = {k} ({_perfect_tag(hamming_bound(n, k))})")
        return EXIT_OK
    status = hamming_bound(n, args.k)
    tag = _perfect_tag(status)
    # Bit lengths rule out a side too long to print before either side is built.
    if max((3 * n + 1).bit_length() + args.k, n + 1) <= _DECIMAL_LIMIT.bit_length():
        lhs = (3 * n + 1) << args.k
        rhs = 1 << n
        if max(lhs, rhs) < _DECIMAL_LIMIT:
            _say(f"{status} ({tag}): (3*{n}+1)*2^{args.k} = {lhs} vs 2^{n} = {rhs}")
            return EXIT_OK
    _say(f"{status} ({tag}): (3*{n}+1)*2^{args.k} vs 2^{n}")
    return EXIT_OK


def cmd_syndromes(args: argparse.Namespace) -> int:
    code = files.loads(_read_text(args.file))
    if any(_placeholders(code)):
        _fail(
            "placeholder identity rows present; the syndrome table needs a "
            "plain code"
        )
        return EXIT_PRECONDITION
    for e, key in zip(enumerate_errors(code.n, 1), code._syndrome_keys):
        # Generator 1's bit first: the key's binary digits, reversed.
        _say(f"{format_pauli(e)} {format(key, f'0{code.a}b')[::-1]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged
    and writes help and usage errors to the streams current at that call."""
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its command parsers by name, one tree."""
    parser = argparse.ArgumentParser(
        prog="qpaste",
        description="Verify, paste and generate one-error stabilizer codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="validate a code and check its syndromes")
    p_verify.add_argument("file", help="stabilizer file, or - for stdin")
    p_verify.add_argument(
        "--distance",
        nargs="?",
        const=3,
        default=None,
        type=int,
        metavar="W",
        help="also brute-force the distance up to weight W (default 3)",
    )
    p_verify.add_argument(
        "--kl",
        action="store_true",
        help="also run the dense-statevector check (small n only)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_paste = sub.add_parser("paste", help="paste a smaller code onto a larger one")
    p_paste.add_argument("larger")
    p_paste.add_argument("smaller")
    p_paste.add_argument(
        "--augment",
        type=int,
        default=0,
        metavar="COUNT",
        help="append COUNT placeholder rows to the larger code first",
    )
    p_paste.add_argument("--out", default="-", help="output file (default stdout)")
    p_paste.set_defaults(func=cmd_paste)

    p_catalog = sub.add_parser("catalog", help="emit a built-in code")
    p_catalog.add_argument("name", choices=list(_BUILTINS))
    p_catalog.add_argument("--out", default="-")
    p_catalog.set_defaults(func=cmd_catalog)

    p_family = sub.add_parser("family", help="emit a constructed family member")
    fam = p_family.add_subparsers(dest="kind", required=True)
    p_hamming = fam.add_parser("hamming", help="the n=2^m family (3 <= m <= 20)")
    p_hamming.add_argument("m", type=int)
    p_hamming.add_argument("--out", default="-")
    p_hamming.set_defaults(func=cmd_family)
    p_perfect = fam.add_parser("perfect", help="the j-th perfect code")
    p_perfect.add_argument("j", type=int)
    p_perfect.add_argument(
        "--max-j",
        dest="max_j",
        type=int,
        default=4,
        help=(
            "largest J accepted (default 4, n=341); J <= 10 is the hard cap, "
            "set by the n = 2^m family's limit m <= 20"
        ),
    )
    p_perfect.add_argument("--out", default="-")
    p_perfect.set_defaults(func=cmd_family)

    p_bound = sub.add_parser("bound", help="one-error bound arithmetic")
    p_bound.add_argument("n", type=int)
    p_bound.add_argument("k", nargs="?", type=int, default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_syndromes = sub.add_parser(
        "syndromes", help="print the weight-<=1 syndrome table"
    )
    p_syndromes.add_argument("file")
    p_syndromes.set_defaults(func=cmd_syndromes)
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` without ``command``, in one argparse
    pass when ``argv`` starts with a command's exact name."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if not extra:
            return args
    # Left-over arguments are refused by the top-level parser, in its words.
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (files.StabilizerFileError, OSError) as exc:
        _fail(str(exc))
        return EXIT_IO
    except PasteError as exc:
        _fail(str(exc))
        for check in exc.diagnostics.checks:
            _note(f"check {check}")
        return EXIT_PRECONDITION
    except PasteVerificationError as exc:
        _fail(f"internal: {exc}")
        return EXIT_PRECONDITION
    except ValueError as exc:
        _fail(str(exc))
        return EXIT_PRECONDITION
