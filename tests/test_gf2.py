import random

import pytest

from qpaste.gf2 import Eliminator

from helpers import ReferenceEliminator


def test_rank_basics():
    assert Eliminator(2, [0b01, 0b10]).rank == 2
    assert Eliminator(2, [0b11, 0b11]).rank == 1
    assert Eliminator(4).rank == 0
    assert Eliminator(3, [0b101, 0b011, 0b110]).rank == 2  # third row is the XOR


def test_dependent_tracking():
    elim = Eliminator(3)
    assert elim.add(0b101)
    assert elim.add(0b011)
    assert not elim.add(0b110)
    assert elim.dependent == [2]
    assert elim.rank == 2


def test_solve_returns_combination():
    rows = [0b1001, 0b0110, 0b1100]
    elim = Eliminator(4, rows)
    combo = elim.solve(0b1111)  # rows 0 + 1
    assert combo is not None
    acc = 0
    for i, row in enumerate(rows):
        if (combo >> i) & 1:
            acc ^= row
    assert acc == 0b1111
    assert elim.solve(0b0001) is None


def test_solve_zero_vector():
    elim = Eliminator(4, [0b1001, 0b0110])
    assert elim.solve(0) == 0


def _rows_with_planted_dependents(rng: random.Random, width: int) -> list[int]:
    """Random rows of assorted densities and pivot positions, with zero rows
    and XORs of earlier rows mixed in."""
    rows: list[int] = []
    for _ in range(rng.randint(0, min(width + 8, 90))):
        kind = rng.random()
        if rows and kind < 0.3:
            row = 0
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                row ^= earlier
        elif kind < 0.35:
            row = 0
        elif kind < 0.6:
            row = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
        else:
            row = rng.getrandbits(rng.randint(1, width))
        rows.append(row)
    return rows


WIDTHS = [1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 199, 200]


@pytest.mark.parametrize("seed", range(60))
def test_matches_reference_elimination(seed):
    rng = random.Random(seed)
    width = WIDTHS[seed] if seed < len(WIDTHS) else rng.randint(1, 200)
    rows = _rows_with_planted_dependents(rng, width)
    ref = ReferenceEliminator(width, rows)
    elim = Eliminator(width)
    assert [elim.add(row) for row in rows] == [i not in ref.dependent for i in range(len(rows))]
    assert Eliminator(width, rows).dependent == elim.dependent == ref.dependent
    assert elim.rank == ref.rank
    in_span = [0]
    for row in rng.sample(rows, min(len(rows), 3)):
        in_span.append(in_span[-1] ^ row)
    singles = [1 << i for i in range(width)]
    targets = in_span + rows + singles + [rng.getrandbits(width) for _ in range(20)]
    for target in targets:
        combination = elim.solve(target)
        assert combination == ref.solve(target)
        if combination is not None:
            acc = 0
            for i, row in enumerate(rows):
                if (combination >> i) & 1:
                    acc ^= row
            assert acc == target
