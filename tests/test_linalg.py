"""Exact linear algebra: hand-checked values and algebraic properties."""

import random
from fractions import Fraction

import pytest

from eqcol.cyclotomic import CycNum
from eqcol.errors import NotInvertible
from eqcol.linalg import CycMatrix, rank_of_rows, rref_rows


def test_det_hand_values():
    assert CycMatrix([[1, 2], [3, 4]]).det() == -2
    assert CycMatrix([[2]]).det() == 2
    # [[i, 1], [1, i]] has determinant i^2 - 1 = -2
    i = CycNum.zeta(4)
    assert CycMatrix([[i, 1], [1, i]]).det() == -2
    assert CycMatrix([[1, 2], [2, 4]]).det() == 0


def test_inverse_hand_value():
    a = CycMatrix([[1, 2], [3, 4]])
    inv = a.inverse()
    assert inv == CycMatrix([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
    assert (a * inv).is_identity()
    assert (inv * a).is_identity()
    with pytest.raises(NotInvertible):
        CycMatrix([[1, 2], [2, 4]]).inverse()


def test_rref_known_pivots():
    m = CycMatrix([[0, 1, 2], [0, 2, 4], [1, 0, 1]])
    reduced, pivots = m.rref()
    assert pivots == (0, 1)
    assert reduced == CycMatrix([[1, 0, 1], [0, 1, 2], [0, 0, 0]])
    assert m.rank() == 2


def test_kernel_annihilates_and_is_canonical():
    m = CycMatrix([[1, 2, 3]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    # free columns 1 and 2 each carry a unit entry
    assert basis[0][1] == 1 and basis[1][2] == 1
    for vec in basis:
        image = [sum((row[j] * vec[j] for j in range(3)), CycNum.zero())
                 for row in m.rows]
        assert all(v == 0 for v in image)


def test_solve():
    a = CycMatrix([[1, 1], [1, -1]])
    x = a.solve([3, 1])
    assert x == (CycNum.from_rat(2), CycNum.from_rat(1))
    assert CycMatrix([[1, 2], [2, 4]]).solve([1, 3]) is None


def _random_matrix(rng: random.Random, n: int, ncols: int | None = None) -> CycMatrix:
    z = CycNum.zeta(8)
    pool = [CycNum.zero(), CycNum.one(), -CycNum.one(), z, z ** 3, z * 2,
            CycNum.from_rat(Fraction(1, 2))]
    return CycMatrix([[rng.choice(pool) for _ in range(n if ncols is None else ncols)]
                      for _ in range(n)])


def _check_elimination(m: CycMatrix) -> int:
    """Rank, transpose rank, RREF pivots, determinant and kernel agree."""
    rank = m.rank()
    assert rank == m.transpose().rank() == len(m.rref()[1])
    assert rank == rank_of_rows(list(m.rows))
    if m.nrows == m.ncols:
        assert bool(m.det()) == (rank == m.nrows)
    kernel = m.kernel_basis()
    assert len(kernel) == m.ncols - rank
    for vec in kernel:
        assert all(not sum((row[j] * vec[j] for j in range(m.ncols)), CycNum.zero())
                   for row in m.rows)
    return rank


def test_elimination_properties_random():
    rng = random.Random(47)
    full = 0
    for _ in range(30):
        n, k, m = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 5)
        a, b = _random_matrix(rng, n, k), _random_matrix(rng, k, m)
        rank = _check_elimination(a * b)
        assert rank <= min(n, k, m)
        if (k <= min(n, m) and CycMatrix(a.rows[:k]).det()
                and CycMatrix([row[:k] for row in b.rows]).det()):
            assert rank == k
            full += 1
    assert full >= 5
    for n in range(1, 5):
        for _ in range(4):
            _check_elimination(_random_matrix(rng, n))


def test_det_is_multiplicative():
    rng = random.Random(23)
    for _ in range(8):
        a = _random_matrix(rng, 3)
        b = _random_matrix(rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_inverse_round_trip_random():
    rng = random.Random(31)
    done = 0
    while done < 6:
        a = _random_matrix(rng, 3)
        if not a.det():
            continue
        assert (a * a.inverse()).is_identity()
        done += 1


def test_matrix_power_and_scalar():
    i = CycNum.zeta(4)
    r = CycMatrix([[0, 1], [-1, 0]])
    assert r ** 4 == CycMatrix.identity(2)
    assert r ** 2 == CycMatrix([[-1, 0], [0, -1]])
    assert (r * i).is_scalar() is False
    assert CycMatrix.diagonal([i, i]).is_scalar()
    assert (r ** -1) == r.transpose()


def test_rref_rows_canonicalizes_span():
    rows_a = [[1, 2, 0], [0, 0, 1]]
    rows_b = [[2, 4, 2], [0, 0, 3], [1, 2, 1]]
    ech_a, piv_a = rref_rows([[CycNum.from_rat(v) for v in row] for row in rows_a])
    ech_b, piv_b = rref_rows([[CycNum.from_rat(v) for v in row] for row in rows_b])
    assert ech_a == ech_b and piv_a == piv_b
    assert rank_of_rows([[CycNum.from_rat(v) for v in row] for row in rows_b]) == 2


def test_trace_linear():
    a = CycMatrix([[1, 2], [3, 4]])
    b = CycMatrix([[0, 1], [1, 0]])
    assert (a + b).trace() == a.trace() + b.trace()
    assert (a * b).trace() == (b * a).trace()
