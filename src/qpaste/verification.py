"""Exhaustive desk-scale checks for one-error codes.

Error enumeration order is part of the public contract: weight ascending,
then acting positions ascending, then factors in the order X < Y < Z, the
identity first.  Witness pairs and reports are therefore reproducible.
``_operator`` alone builds the operators in that order, for every weight.
The quantum Hamming bound is decided exactly from ``best_k``'s closed form.
"""

from __future__ import annotations

import enum
import functools
from itertools import combinations, product
from typing import Iterator, NamedTuple

from .kl import kl_check
from .pauli import _FACTOR_BITS, PauliOperator
from .stabilizer import StabilizerCode, _in_span, _pack, _require_valid, validate

# The error sets enumerate_errors keeps, least recently used dropped first.
_ERROR_SETS_KEPT = 8
# (x, z) bits of factor index 0, 1, 2: X < Y < Z, as in the syndrome table.
_XYZ_BITS = tuple(_FACTOR_BITS[f] for f in "XYZ")


def _operator(n: int, positions: tuple[int, ...], factors: tuple[int, ...]) -> PauliOperator:
    """The sign-+1 product with factor index ``factors[k]`` on qubit ``positions[k]``."""
    x = 0
    z = 0
    for pos, f in zip(positions, factors):
        xb, zb = _XYZ_BITS[f]
        x |= xb << pos
        z |= zb << pos
    return PauliOperator(n, x, z, 1)


def _check_range(n: int, w: int) -> None:
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= w <= n:
        raise ValueError(f"max weight {w} out of range for {n} qubits")


def iter_weight_errors(n: int, w: int) -> Iterator[PauliOperator]:
    """All sign-+1 Pauli products of exact weight ``w``, in canonical order.

    Arguments out of range raise ``ValueError`` when iteration starts.
    """
    _check_range(n, w)
    for positions in combinations(range(n), w):
        for factors in product(range(3), repeat=w):
            yield _operator(n, positions, factors)


# The cache is typed, so a float length fails as it does uncached.
@functools.lru_cache(maxsize=_ERROR_SETS_KEPT, typed=True)
def enumerate_errors(n: int, t: int) -> tuple[PauliOperator, ...]:
    """Deterministic enumeration of all errors of weight at most ``t``.

    For t = 1 the count is 3n + 1.  Equal arguments return the same tuple
    while it is among the last few built; a tuple of immutable operators
    is safe to share.
    """
    _check_range(n, t)
    return tuple([e for w in range(t + 1) for e in iter_weight_errors(n, w)])


class DistanceReport(NamedTuple):
    """Outcome of the weight-1 syndrome distinctness check.

    ``ok`` means every collision (if any) was excused by group membership;
    ``degenerate`` flags that at least one excusal was used.  A failing
    report always carries the first offending pair in enumeration order.
    """

    ok: bool
    degenerate: bool
    distinct_count: int
    error_count: int
    witness: tuple[PauliOperator, PauliOperator] | None
    degenerate_pairs: tuple[tuple[PauliOperator, PauliOperator], ...]


def verify_distance3(code: StabilizerCode, allow_degenerate: bool = False) -> DistanceReport:
    """Check that all 3n+1 weight-<=1 errors have distinct syndromes.

    With ``allow_degenerate`` a colliding pair (E, F) is excused when
    E†F lies in the group up to sign (the two errors then act
    identically on the codespace, up to a global sign); any excusal marks
    the code as degenerate.  Syndromes are read off the code's flat table of
    weight-<=1 syndrome keys.
    """
    _require_valid(code)
    n = code.n
    # Error index 0 is the identity, 3i + f + 1 is factor f on qubit i:
    # the canonical order of enumerate_errors(n, 1).
    keys = code._syndrome_keys
    # With 2^a < 3n + 1 the a-bit keys cannot all differ: scan for the first
    # collision, reading keys one at a time so that a failing code stops there.
    if len(keys) <= 1 << code.a and len(set(keys)) == len(keys):
        return DistanceReport(True, False, len(keys), len(keys), None, ())
    seen: dict[int, int] = {}
    excused: list[tuple[PauliOperator, PauliOperator]] = []
    for index, key in enumerate(keys):
        first = seen.setdefault(key, index)
        if first == index:
            continue
        pair = (_weight1_error(n, first), _weight1_error(n, index))
        if allow_degenerate and _in_span(code, _pack(pair[0]) ^ _pack(pair[1])):
            excused.append(pair)
            continue
        return DistanceReport(False, bool(excused), len(seen), len(keys), pair, tuple(excused))
    return DistanceReport(True, bool(excused), len(seen), len(keys), None, tuple(excused))


def _weight1_error(n: int, index: int) -> PauliOperator:
    """Error ``index`` of enumerate_errors(n, 1)."""
    if index == 0:
        return _operator(n, (), ())
    qubit, factor = divmod(index - 1, 3)
    return _operator(n, (qubit,), (factor,))


def distance(code: StabilizerCode, max_weight: int) -> int | None:
    """Smallest weight of an operator commuting with the group but outside it.

    Searches weights 1..max_weight, with 1 <= max_weight <= n; returns None
    when no such operator exists in that range.  A candidate counts as in the
    group when either sign of it is, which is one GF(2) span test.

    Candidates are scanned in canonical order; the syndrome of one is the
    XOR of its qubits' weight-1 syndrome keys, and it is zero
    exactly when the XOR over all but the last qubit equals the last
    qubit's entry.
    """
    _require_valid(code)
    n = code.n
    if max_weight > n:
        raise ValueError(f"max weight {max_weight} exceeds qubit count {n}")
    if max_weight < 1:
        raise ValueError(f"max weight {max_weight} out of range 1..{n}")
    keys = list(code._syndrome_keys)
    # Qubit i's X, Y and Z keys as ints; this view lives only as long as the search.
    table = [keys[i : i + 3] for i in range(1, 3 * n + 1, 3)]
    for w in range(1, max_weight + 1):
        for head in combinations(range(n), w - 1):
            # Syndromes of the 3^(w-1) factor choices on ``head``, in product order.
            head_syndromes = [0]
            for i in head:
                head_syndromes = [s ^ t for s in head_syndromes for t in table[i]]
            head_set = set(head_syndromes)
            for last in range(head[-1] + 1 if head else 0, n):
                if head_set.isdisjoint(table[last]):
                    continue
                for factors, s in zip(product(range(3), repeat=w - 1), head_syndromes):
                    for f, t in enumerate(table[last]):
                        if s == t:
                            p = _operator(n, head + (last,), factors + (f,))
                            if not _in_span(code, _pack(p)):
                                return w
    return None


class BoundStatus(enum.Enum):
    VIOLATED = "violated"
    SATISFIED = "satisfied"
    SATURATED = "saturated"

    def __str__(self) -> str:
        return self.value


def hamming_bound(n: int, k: int) -> BoundStatus:
    """Compare (3n+1) * 2^k against 2^n, exactly, through ``best_k``.

    SATURATED (equality) identifies a perfect one-error code: k is
    ``best_k(n)`` and 3n+1 is a power of two.  No number above 3n+1 is
    built, so 2^n never is.
    """
    best = best_k(n)
    if not 0 <= k <= n:
        raise ValueError(f"encoded qubit count {k} out of range for n={n}")
    if best is None or k > best:
        return BoundStatus.VIOLATED
    if k == best and (3 * n + 1) & (3 * n) == 0:
        return BoundStatus.SATURATED
    return BoundStatus.SATISFIED


def _perfect_tag(status: BoundStatus) -> str:
    return "perfect" if status is BoundStatus.SATURATED else "not perfect"


def best_k(n: int) -> int | None:
    """Largest k with (3n+1) * 2^k <= 2^n, or None when even k=0 fails."""
    if n < 1:
        raise ValueError("need at least one qubit")
    # 2^k <= 2^n / (3n+1) exactly when k <= n - ceil(log2(3n+1)), and
    # ceil(log2(x)) is (x-1).bit_length() for x >= 1.
    k = n - (3 * n).bit_length()
    return k if k >= 0 else None


def perfect_length(j: int) -> int:
    """Qubit count of the j-th perfect one-error code: 5, 21, 85, 341, ...

    The j-th code has n = (4^(j+1) - 1) / 3 and 2j + 2 generators, so the
    bound saturates: (3n + 1) * 2^(n - 2j - 2) = 4^(j+1) * 2^(n-2j-2) = 2^n.
    """
    if j < 1:
        raise ValueError("perfect codes are indexed from 1")
    return (4 ** (j + 1) - 1) // 3


def check_code(
    code: StabilizerCode, max_weight: int | None = None, kl: bool = False
) -> Iterator[tuple[str, bool]]:
    """Stream ``qpaste verify``'s report lines on ``code`` as ``(line, ok)`` pairs.

    The lines are validate, distance3, bound, then distance when
    ``max_weight`` is given and kl when ``kl`` is set; each check runs only
    when its pair is read, and a refused one raises ``ValueError`` then.  An
    invalid code yields only its validate line, with one ``  violation``
    line per violation.  bound and distance are findings, always ok; kl
    passes when the Knill-Laflamme conditions hold and rank(C) equals
    distance3's distinct-syndrome count.
    """
    report = validate(code)
    if not report.ok:
        lines = ["validate: FAIL"] + [f"  violation {v}" for v in report.violations]
        yield "\n".join(lines), False
        return
    yield "validate: pass", True
    d3 = verify_distance3(code, allow_degenerate=True)
    if d3.ok:
        kind = (
            f"degenerate, {len(d3.degenerate_pairs)} excused pair(s)"
            if d3.degenerate
            else "nondegenerate"
        )
        counts = f"{d3.distinct_count}/{d3.error_count}"
        yield f"distance3: pass ({counts} distinct syndromes, {kind})", True
    else:
        e, f = d3.witness
        yield f"distance3: FAIL (collision between {e} and {f})", False
    status = hamming_bound(code.n, code.n - code.a)
    best = best_k(code.n)
    shown = best if best is not None else "none"
    yield f"bound: {status} (best_k={shown}, {_perfect_tag(status)})", True
    if max_weight is not None:
        found = distance(code, max_weight)
        shown = found if found is not None else "none"
        yield f"distance: {shown} (searched weight <= {max_weight})", True
    if kl:
        result = kl_check(code, enumerate_errors(code.n, 1))
        # rank(C) counts the errors' classes up to +-S; when distance3 passes,
        # those are its distinct syndromes, degenerate codes included.
        passed = result.passed and result.rank == d3.distinct_count
        size = result.c_matrix.shape[0]
        yield (
            f"kl: {'pass' if passed else 'FAIL'} (C rank {result.rank}/{size}, "
            f"max deviation {result.max_deviation:.2e})"
        ), passed
