"""Seeded input samplers and the fixed codes the workloads start from.

Everything works on Pauli text rows and the benchmark's own reference
algebra, so the program under test only ever receives finished codes.
"""

from __future__ import annotations

import random

from reference import anticommute, gf2_rank, multiply, to_bits, to_text

# The paper's codes (arXiv quant-ph/9607027): the 5-qubit perfect code, the
# 8-qubit code and the 13-qubit code obtained by pasting the first onto the
# augmented second.  The 13-qubit rows are the golden output of `paste`.
CODE5 = ("XXZIZ", "ZXXZI", "IZXXZ", "ZIZXX")
CODE8 = ("XXXXXXXX", "ZZZZZZZZ", "XIXIZYZY", "XIYZXIYZ", "XZIYIYXZ")
CODE13 = (
    "XXXXXXXXIIIII",
    "ZZZZZZZZIIIII",
    "XIXIZYZYXXZIZ",
    "XIYZXIYZZXXZI",
    "XZIYIYXZIZXXZ",
    "IIIIIIIIZIZXX",
)
# Shor's [[9,1,3]] code: degenerate, every Z-pair inside a block is excused.
SHOR9 = (
    "ZZIIIIIII",
    "IZZIIIIII",
    "IIIZZIIII",
    "IIIIZZIII",
    "IIIIIIZZI",
    "IIIIIIIZZ",
    "XXXXXXIII",
    "IIIXXXXXX",
)
# Y1 and Y2 collide and adjoint(Y1).Y2 = -YY lies in -S: a k = 0 code that
# corrects every error, which the sign-sensitive excusal mis-reports.
PAIR = ("XX", "ZZ")


def permute(rows: list[str], perm: list[int]) -> list[str]:
    """New qubit j carries the factor of old qubit perm[j]."""
    return ["".join(row[p] for p in perm) for row in rows]


def shuffled(rng: random.Random, rows: list[str]) -> list[str]:
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return permute(rows, perm)


def recombine(rng: random.Random, rows: list[str], times: int) -> list[str]:
    """Replace row i by row i . row j where that product has sign +1.

    The generated group is unchanged, so every verdict is too; products
    with sign -1 are skipped because file rows cannot carry a sign.
    """
    rows = list(rows)
    n = len(rows[0])
    for _ in range(times):
        if len(rows) < 2:
            break
        i, j = rng.sample(range(len(rows)), 2)
        x, z, sign = multiply((*to_bits(rows[i]), 1), (*to_bits(rows[j]), 1))
        if sign == 1:
            rows[i] = to_text(n, x, z)
    return rows


def variant(rng: random.Random, rows: list[str]) -> list[str]:
    """A fresh member of the code's equivalence class: permuted and recombined."""
    return recombine(rng, shuffled(rng, rows), 2)


def random_mixer(rng: random.Random, m: int) -> list[int]:
    """m x m GF(2) matrix rows with both L and L + I invertible."""
    while True:
        rows = [rng.getrandbits(m) for _ in range(m)]
        if gf2_rank(rows) == m and gf2_rank([r ^ (1 << i) for i, r in enumerate(rows)]) == m:
            return rows


def repeat_qubit(rows: list[str], q: int) -> list[str]:
    """Copy qubit q onto a new last qubit through an inner repetition pair.

    X-type factors on q extend as XX across the pair, Z stays put, and a
    new ZZ generator ties the pair, so the two Z errors collide and are
    excused by that generator: a degenerate code of the same distance.
    """
    n = len(rows[0])
    out = [row + ("X" if row[q] in "XY" else "I") for row in rows]
    out.append("".join("Z" if i in (q, n) else "I" for i in range(n + 1)))
    return out


def direct_sum(first: list[str], second: list[str]) -> list[str]:
    """Both codes side by side on disjoint qubits."""
    pad1, pad2 = "I" * len(second[0]), "I" * len(first[0])
    return [r + pad1 for r in first] + [pad2 + r for r in second]


def random_code(rng: random.Random, n: int, a: int) -> list[str]:
    """Rejection-sample a commuting, independent, square-to-+1 generator list."""
    gens: list[tuple[int, int]] = []
    while len(gens) < a:
        p = (rng.getrandbits(n), rng.getrandbits(n))
        if (p[0] & p[1]).bit_count() & 1 or any(anticommute(p, g) for g in gens):
            continue
        if gf2_rank([x | (z << n) for x, z in gens + [p]]) == len(gens) + 1:
            gens.append(p)
    return [to_text(n, x, z) for x, z in gens]
