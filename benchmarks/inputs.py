"""Build one warm workload's seeded base codes in a fresh interpreter.

Run as ``python benchmarks/inputs.py WORKLOAD SEED OUT [TRACE_OUT]`` with
qpaste importable.  The cold catalog constructions happen here, once per
interpreter, which is why the benchmark's set-up time is taken from
fresh runs of this script.  Every base is checked against the
benchmark's own reference, and its expected verdicts come from how it
was built, never from qpaste.
"""

from __future__ import annotations

import json
import random
import sys

import qpaste

import samplers
from reference import RefCode, best_k, hamming_status


class InputError(RuntimeError):
    """A generated input does not have the properties its construction promises."""


def rows_of(code) -> list[str]:
    return qpaste.dumps(code).split()


def nondegenerate(name: str, rows: list[str], n: int, a: int) -> dict:
    """Base entry for a valid code with distinct, nonzero weight-1 syndromes."""
    ref = RefCode(rows)
    if (ref.n, len(rows)) != (n, a) or not ref.valid():
        raise InputError(f"{name}: not a valid [[{n}, {n - a}]] code")
    if len({s for _, _, s in ref.weight1()}) != 3 * n + 1:
        raise InputError(f"{name}: weight-1 syndromes are not distinct")
    return {"name": name, "rows": rows, "n": n, "a": a}


def verify_sweep(rng: random.Random) -> list[dict]:
    bases = []
    for j in range(2, 6):
        n = (4 ** (j + 1) - 1) // 3
        bases.append(nondegenerate(f"perfect{j}", rows_of(qpaste.perfect(j, j_max=5)), n, 2 * j + 2))
    for m in range(4, 11):
        code = qpaste.hamming_class(m, mixer=samplers.random_mixer(rng, m))
        bases.append(nondegenerate(f"hamming{m}", rows_of(code), 1 << m, m + 2))
    for base in bases:
        n, a = base["n"], base["a"]
        # The bad variant drops one generator: 2^(a-1) < 3n + 1 syndromes
        # cannot separate the weight-<=1 errors, so verify must FAIL.
        base["expect"] = {
            "good": {"status": hamming_status(n, n - a), "best_k": best_k(n)},
            "bad": {"status": hamming_status(n, n - a + 1), "best_k": best_k(n)},
        }
    return bases


def distance_search(rng: random.Random) -> list[dict]:
    bases = [
        nondegenerate("code13", list(samplers.CODE13), 13, 6),
        nondegenerate("perfect2", rows_of(qpaste.perfect(2)), 21, 6),
        nondegenerate("perfect3", rows_of(qpaste.perfect(3)), 85, 8),
    ]
    for m in (4, 5, 6):
        code = qpaste.hamming_class(m, mixer=samplers.random_mixer(rng, m))
        bases.append(nondegenerate(f"hamming{m}", rows_of(code), 1 << m, m + 2))
    for base in bases:
        base["expect"] = 3
    for m in (4, 5, 6):
        # Dropping the last row keeps every weight-1 syndrome nonzero (the
        # all-X and all-Z rows remain) but makes two X errors collide.
        rows = rows_of(qpaste.hamming_class(m, mixer=samplers.random_mixer(rng, m)))[:-1]
        bases.append({"name": f"hamming{m}-d2", "rows": rows, "n": 1 << m, "a": m + 1, "expect": 2})
    for base in bases:
        found = RefCode(base["rows"]).nondegenerate_distance()
        if found != base["expect"]:
            raise InputError(f"{base['name']}: reference distance {found}, built for {base['expect']}")
    return bases


# Named crosscheck codes with their verdict by construction: whether every
# weight-<=1 error is corrected, the distance found up to weight min(3, n)
# and whether some weight-<=1 errors collide.
NAMED_SMALL = {
    "code5": (True, 3, False),
    "code8": (True, 3, False),
    "hamming3": (True, 3, False),
    "shor9": (True, 3, True),
    "code5-repeat": (True, 3, True),
    "code8-repeat": (True, 3, True),
    "pair": (True, None, True),
    "pair+code5": (True, 3, True),
}
RANDOM_SHAPES = ((6, 4), (8, 5), (9, 5), (10, 6), (10, 5))  # (n, a): k <= 5


def small_entry(name: str, rows: list[str]) -> dict:
    ref = RefCode(rows)
    if not ref.valid():
        raise InputError(f"{name}: not a valid code")
    n = ref.n
    syndromes = [s for _, _, s in ref.weight1()]
    distance = ref.distance(min(3, n))
    return {
        "name": name,
        "rows": rows,
        "n": n,
        "a": len(rows),
        "expect": {
            "pass": distance is None or distance >= 3,
            "distance": distance,
            "degenerate": len(set(syndromes)) < len(syndromes),
            "distinct": len(set(syndromes)),
        },
    }


def crosscheck_small(rng: random.Random) -> list[dict]:
    named = {
        "code5": list(samplers.CODE5),
        "code8": list(samplers.CODE8),
        "hamming3": rows_of(qpaste.hamming_class(3, mixer=samplers.random_mixer(rng, 3))),
        "shor9": list(samplers.SHOR9),
        "code5-repeat": samplers.repeat_qubit(list(samplers.CODE5), rng.randrange(5)),
        "code8-repeat": samplers.repeat_qubit(list(samplers.CODE8), rng.randrange(8)),
        "pair": list(samplers.PAIR),
        "pair+code5": samplers.direct_sum(list(samplers.PAIR), list(samplers.CODE5)),
    }
    bases = []
    for name, rows in named.items():
        entry = small_entry(name, rows)
        want = dict(zip(("pass", "distance", "degenerate"), NAMED_SMALL[name]))
        got = {key: entry["expect"][key] for key in want}
        if got != want:
            raise InputError(f"{name}: reference gives {got}, built for {want}")
        bases.append(entry)
    for n, a in RANDOM_SHAPES:
        bases.append(small_entry(f"random{n}.{a}", samplers.random_code(rng, n, a)))
    return bases


BUILDERS = {
    "verify-sweep": verify_sweep,
    "distance-search": distance_search,
    "crosscheck-small": crosscheck_small,
}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    tracer = None
    if len(argv) > 3:
        from tracer import Tracer

        tracer = Tracer("setup")
        tracer.install()
    bases = BUILDERS[workload](random.Random(f"{workload}/{seed}/inputs"))
    with open(out, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "bases": bases}, fh)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
