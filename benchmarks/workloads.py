"""The three warm, in-process workloads: tasks, qpaste calls and checks.

A workload turns its base codes into rounds of tasks.  Each task gets a
fresh seeded variant (qubits permuted, generators recombined), so no two
tasks hand qpaste the same code and a cache keyed on the code cannot
turn the run into a replay.  ``run`` is the timed part and calls only
qpaste's public API; ``check`` compares its output with what the
benchmark's own reference says, and returns None when it is right, or
the reason it is wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys

import qpaste
import qpaste.cli

import samplers
from cli_family import verify_lines
from reference import RefCode, adjoint, multiply, to_bits

KNOWN_DEFECT = "known-defect"


def _bits(p) -> tuple[int, int, int]:
    return p.x, p.z, p.sign


class Workload:
    def __init__(self, inputs: dict):
        self.bases = inputs["bases"]

    def copies(self, base: dict) -> int:
        """Tasks per round made from this base."""
        return 1

    def round(self, rng: random.Random) -> list[tuple[str, object, object]]:
        """One round of (kind, payload, expectation) in a seeded order."""
        tasks = [self.task(rng, base, copy) for base in self.bases for copy in range(self.copies(base))]
        rng.shuffle(tasks)
        return tasks


class VerifySweep(Workload):
    """``qpaste verify -`` run in-process, on families from n = 16 to 1365.

    The command's steps are ``loads``, ``validate``,
    ``verify_distance3(allow_degenerate=True)``, ``hamming_bound`` and
    ``best_k``; going through ``qpaste.cli.main`` keeps the command-line
    layer measured on a warm workload.
    """

    def copies(self, base: dict) -> int:
        return 4

    def task(self, rng, base, copy):
        rows = samplers.variant(rng, base["rows"])
        good = copy != 3  # one task in four is a bad variant
        if not good:
            rows = rows[:-1]
        expect = base["expect"]["good" if good else "bad"]
        n, a = len(rows[0]), len(rows)
        tag = "perfect" if expect["status"] == "saturated" else "not perfect"
        lines = (
            verify_lines(n, a, False)
            if good
            else [
                re.escape(f"n={n} a={a} k={n - a}"),
                "validate: pass",
                r"distance3: FAIL \(collision between (\S+) and (\S+)\)",
                re.escape(f"bound: {expect['status']} (best_k={expect['best_k']}, {tag})"),
                "result: fail",
            ]
        )
        kind = f"{base['name']}-{'good' if good else 'bad'}"
        return kind, (rows, "\n".join(rows) + "\n"), (0 if good else 1, lines)

    @staticmethod
    def run(payload):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(payload[1])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qpaste.cli.main(["verify", "-"])
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(payload, expect, result):
        code, stdout, stderr = result
        want_code, patterns = expect
        lines = stdout.splitlines()
        matches = [re.fullmatch(p, line) for p, line in zip(patterns, lines)]
        if code != want_code or len(lines) != len(patterns) or not all(matches):
            return f"exit code {code}, output {stdout!r} {stderr[-200:]!r}"
        if want_code == 0:
            return None
        # A FAIL must name two distinct weight-<=1 errors that collide
        # outside the group.
        e, f = (to_bits(t) for t in matches[2].groups())
        if any((p[0] | p[1]).bit_count() > 1 for p in (e, f)) or e == f:
            return f"witness {matches[2].groups()} is not two distinct weight-<=1 errors"
        ref = RefCode(payload[0])
        if ref.syndrome(*e) != ref.syndrome(*f):
            return f"witness {matches[2].groups()} does not collide"
        if ref.group_sign(e[0] ^ f[0], e[1] ^ f[1]) is not None:
            return f"witness {matches[2].groups()} is excused by the group"
        return None


class DistanceSearch(Workload):
    """Brute-force ``distance(code, 3)`` at n = 13 to 85."""

    def copies(self, base: dict) -> int:
        # The perfect codes twice: perfect(3) is the heaviest search, and the
        # two perfect(2) copies keep the median off the edge between kinds.
        return 2 if base["name"] in ("perfect2", "perfect3") else 1

    def task(self, rng, base, copy):
        return base["name"], samplers.variant(rng, base["rows"]), base["expect"]

    @staticmethod
    def run(rows):
        code = qpaste.StabilizerCode([qpaste.parse_pauli(r) for r in rows])
        return qpaste.distance(code, 3)

    @staticmethod
    def check(rows, expect, result):
        return None if result == expect else f"distance {result}, expected {expect}"


class CrosscheckSmall(Workload):
    """All three verification routes on codes with n <= 10 and k <= 5."""

    def task(self, rng, base, copy):
        return base["name"], samplers.variant(rng, base["rows"]), base["expect"]

    @staticmethod
    def run(rows):
        code = qpaste.StabilizerCode([qpaste.parse_pauli(r) for r in rows])
        n = code.n
        d3 = qpaste.verify_distance3(code, allow_degenerate=True)
        found = qpaste.distance(code, min(3, n))
        kl = qpaste.kl_check(code, qpaste.enumerate_errors(n, 1))
        return d3, found, kl.passed, kl.full_rank

    @staticmethod
    def check(rows, expect, result):
        d3, found, kl_passed, kl_full_rank = result
        n = len(rows[0])
        problems = []
        if found != expect["distance"]:
            problems.append(f"distance {found}, expected {expect['distance']}")
        if kl_passed != expect["pass"]:
            problems.append(f"kl passed={kl_passed}, expected {expect['pass']}")
        elif kl_passed and kl_full_rank == expect["degenerate"]:
            problems.append(f"kl full_rank={kl_full_rank} on a code with degenerate={expect['degenerate']}")
        if d3.error_count != 3 * n + 1:
            problems.append(f"distance3 enumerated {d3.error_count} errors")
        if problems:
            return "; ".join(problems)
        if d3.ok != expect["pass"]:
            if d3.ok:
                return "distance3 passed a code that does not correct one error"
            if _sign_excusal_miss(rows, d3.witness):
                return KNOWN_DEFECT
            return f"distance3 failed with witness {d3.witness}"
        if d3.ok:
            if d3.degenerate != expect["degenerate"] or d3.distinct_count != expect["distinct"]:
                return f"distance3 degenerate={d3.degenerate} distinct={d3.distinct_count}"
            return None
        return _sign_excused_only(rows, d3.witness)


def _sign_excusal_miss(rows: list[str], pair) -> bool:
    """qpaste's known defect: adjoint(E).F lies in -S and was not excused.

    An element of -S acts as -1 on the codespace, so the pair is harmless,
    but verify_distance3 excuses only +S (see NOTES.md).
    """
    if not pair or len(pair) != 2:
        return False
    ref = RefCode(rows)
    x, z, sign = multiply(adjoint(_bits(pair[0])), _bits(pair[1]))
    return ref.group_sign(x, z) == -sign


def _sign_excused_only(rows: list[str], pair) -> str | None:
    """A failing witness must collide and must not lie in +S."""
    if not pair or len(pair) != 2:
        return f"witness {pair!r} is not a pair"
    ref = RefCode(rows)
    e, f = (_bits(p) for p in pair)
    if ref.syndrome(*e[:2]) != ref.syndrome(*f[:2]):
        return f"witness {pair} does not collide"
    x, z, sign = multiply(adjoint(e), f)
    if ref.group_sign(x, z) == sign:
        return f"witness {pair} is excused by +S"
    return None


WORKLOADS = {
    "verify-sweep": VerifySweep,
    "distance-search": DistanceSearch,
    "crosscheck-small": CrosscheckSmall,
}
