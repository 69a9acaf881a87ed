from qpaste.gf2 import Eliminator


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

