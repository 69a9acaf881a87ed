"""The cold workload: one fresh ``python -m qpaste`` per command.

Every command pays interpreter start-up, ``import qpaste`` and any
catalog or pasting construction from scratch, as a command-line user
does.  Commands run one at a time; each output is checked against the
paper's golden rows or against the benchmark's own reference.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import samplers
from reference import RefCode, best_k, hamming_status

HERE = Path(__file__).resolve().parent
SMALL_N = 341


def golden(rows) -> str:
    return "\n".join(rows) + "\n"


def verify_lines(n: int, a: int, kl: bool) -> list[str]:
    k = n - a
    status = hamming_status(n, k)
    tag = "perfect" if status == "saturated" else "not perfect"
    lines = [
        f"n={n} a={a} k={k}",
        "validate: pass",
        f"distance3: pass ({3 * n + 1}/{3 * n + 1} distinct syndromes, nondegenerate)",
        f"bound: {status} (best_k={best_k(n)}, {tag})",
    ]
    patterns = [re.escape(line) for line in lines]
    if kl:
        m = 3 * n + 1
        patterns.append(re.escape(f"kl: pass (C rank {m}/{m}, max deviation ") + r"\d\.\d\de[-+]\d+\)")
    patterns.append("result: pass")
    return patterns


def bound_line(n: int, k: int | None) -> str:
    if k is None:
        bk = best_k(n)
        return f"best k = {bk} ({'perfect' if hamming_status(n, bk) == 'saturated' else 'not perfect'})"
    status = hamming_status(n, k)
    tag = "perfect" if status == "saturated" else "not perfect"
    return f"{status} ({tag}): (3*{n}+1)*2^{k} = {(3 * n + 1) << k} vs 2^{n} = {1 << n}"


class CliFamily:
    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.trace_files: list[Path] = []
        self.traced = False
        self.peak_rss_kb = 0

    def setup(self) -> None:
        """Write the paste inputs the way a user would, and check them."""
        for name, rows in (("code8", samplers.CODE8), ("code5", samplers.CODE5)):
            result = self.run(["catalog", name, "--out", f"{name}.stab"])
            problem = self.check(["catalog"], ("file", f"{name}.stab", golden(rows)), result)
            if problem:
                raise RuntimeError(f"set-up command `catalog {name}` failed: {problem}")

    def round(self, rng: random.Random) -> list[tuple[str, list[str], tuple]]:
        """One round of (kind, argv, expectation), each kind spread evenly."""
        units: dict[str, list[list]] = {"perfect": [], "hamming": [], "catalog": [], "bound": []}
        for j in range(1, 6):
            n, a = (4 ** (j + 1) - 1) // 3, 2 * j + 2
            out = f"perfect{j}.stab"
            units["perfect"].append([
                (["family", "perfect", str(j), "--max-j", "5", "--out", out], n, ("code", out, n, a)),
                (["verify", out], n, ("stdout", verify_lines(n, a, False))),
            ])
            units["bound"].append([self._bound(rng, n, n - a)])
        for m in range(3, 13):
            n, a = 1 << m, m + 2
            out = f"hamming{m}.stab"
            units["hamming"].append([
                (["family", "hamming", str(m), "--out", out], n, ("code", out, n, a)),
                (["verify", out], n, ("stdout", verify_lines(n, a, False))),
            ])
        for name, rows in (("code5", samplers.CODE5), ("code8", samplers.CODE8), ("code13", samplers.CODE13)):
            out = f"catalog-{name}.stab"
            kl = ["--kl"] if name != "code13" else []
            n, a = len(rows[0]), len(rows)
            units["catalog"].append([
                (["catalog", name, "--out", out], n, ("file", out, golden(rows))),
                (["verify", out, *kl], n, ("stdout", verify_lines(n, a, bool(kl)))),
            ])
        units["catalog"].append([
            (["paste", "code8.stab", "code5.stab", "--augment", "1", "--out", "pasted.stab"], 13,
             ("file", "pasted.stab", golden(samplers.CODE13))),
            (["verify", "pasted.stab"], 13, ("stdout", verify_lines(13, 6, False))),
        ])
        # Spread every kind of command evenly through the round, so that a
        # run cut short by the clock still sees the same mix of commands.
        keyed = []
        for group in units.values():
            rng.shuffle(group)
            for i, unit in enumerate(group):
                keyed.append(((i + rng.random()) / len(group), unit))
        keyed.sort(key=lambda pair: pair[0])
        return [(self.kind(argv, n), argv, expect) for _, unit in keyed for argv, n, expect in unit]

    @staticmethod
    def kind(argv: list[str], n: int) -> str:
        """Commands whose qpaste work is below the run-to-run noise of
        interpreter start-up share a kind: every `bound`, every `catalog`,
        and each subcommand on codes under 341 qubits (`--kl` apart, as it
        needs numpy).  Other commands are their own kind."""
        if argv[0] in ("bound", "catalog") or n < SMALL_N:
            return " ".join([argv[0], *(["--kl"] if "--kl" in argv else [])])
        return " ".join(argv)

    @staticmethod
    def _bound(rng: random.Random, n: int, k: int) -> tuple:
        argv = ["bound", str(n)] if rng.random() < 0.5 else ["bound", str(n), str(k)]
        return argv, n, ("stdout", [re.escape(bound_line(n, None if len(argv) == 2 else k))])

    def run(self, argv: list[str]):
        if self.traced:
            trace = self.workdir / f"trace-{len(self.trace_files)}.json"
            self.trace_files.append(trace)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace), *argv]
        else:
            cmd = [sys.executable, "-m", "qpaste", *argv]
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            try:
                # wait4 rather than Popen.wait: it also gives the child's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def check(self, argv, expect, result) -> str | None:
        code, stdout, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        kind = expect[0]
        if kind == "stdout":
            lines = stdout.splitlines()
            patterns = expect[1]
            if len(lines) != len(patterns) or not all(re.fullmatch(p, line) for p, line in zip(patterns, lines)):
                return f"unexpected output {stdout!r}"
            return None
        if stdout:
            return f"unexpected stdout {stdout[:200]!r}"
        text = (self.workdir / expect[1]).read_text()
        if kind == "file":
            return None if text == expect[2] else f"{expect[1]} differs from the golden rows"
        rows = text.split()
        n, a = expect[2], expect[3]
        ref = RefCode(rows)
        if text != golden(rows) or (ref.n, len(rows)) != (n, a) or not ref.valid():
            return f"{expect[1]} is not a valid code with n={n}, a={a}"
        if len({s for _, _, s in ref.weight1()}) != 3 * n + 1:
            return f"{expect[1]} has colliding weight-1 syndromes"
        return None
