"""Exact linear algebra: hand-checked values, algebraic properties, and
the dense elimination as the oracle of the sparse one."""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqcol.cyclotomic import CycNum, euler_phi
from eqcol.linalg import (
    CycMatrix,
    RightMultiplier,
    eliminate_along,
    flat_trace,
    flatten,
    rank_of_rows,
    rref_rows,
    sparse_echelon,
    sparse_kernel,
    sparse_rank,
    unflatten,
)


def test_det_hand_values():
    assert CycMatrix([[1, 2], [3, 4]]).det() == -2
    assert CycMatrix([[2]]).det() == 2
    # [[i, 1], [1, i]] has determinant i^2 - 1 = -2
    i = CycNum.zeta(4)
    assert CycMatrix([[i, 1], [1, i]]).det() == -2
    assert CycMatrix([[1, 2], [2, 4]]).det() == 0
    # permutation matrices: the sign is the parity of the leads as found
    assert CycMatrix([[0, 1], [1, 0]]).det() == -1
    assert CycMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]).det() == 1
    assert CycMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1


def test_rref_known_pivots():
    m = CycMatrix([[0, 1, 2], [0, 2, 4], [1, 0, 1]])
    reduced, pivots = rref_rows(_sparse(row) for row in m.rows)
    assert pivots == [0, 1]
    assert [_dense(row, 3) for row in reduced] == \
        list(CycMatrix([[1, 0, 1], [0, 1, 2]]).rows)
    assert m.rank() == 2


def test_kernel_annihilates_and_is_canonical():
    m = CycMatrix([[1, 2, 3]])
    basis = _kernel(m)
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
    # free variables are 0; a zero row with a nonzero right side is inconsistent
    assert CycMatrix([[0, 1, 1]]).solve([2]) == (0, 2, 0)
    assert CycMatrix([[0, 0]]).solve([1]) is None


def _random_matrix(rng: random.Random, n: int, ncols: int | None = None) -> CycMatrix:
    z = CycNum.zeta(8)
    pool = [CycNum.zero(), CycNum.one(), -CycNum.one(), z, z ** 3, z * 2,
            CycNum.from_rat(Fraction(1, 2))]
    return CycMatrix([[rng.choice(pool) for _ in range(n if ncols is None else ncols)]
                      for _ in range(n)])


def _transpose(m: CycMatrix) -> CycMatrix:
    return CycMatrix(list(zip(*m.rows)))


def _kernel(m: CycMatrix) -> list[tuple[CycNum, ...]]:
    """The sparse kernel basis of m, made dense."""
    rows, leads = sparse_echelon(_sparse(row) for row in m.rows)
    return [_dense(vec, m.ncols) for vec in sparse_kernel(rows, leads, m.ncols)]


def _check_elimination(m: CycMatrix) -> int:
    """Rank, transpose rank, RREF pivots, determinant and kernel agree."""
    rank = m.rank()
    assert rank == _transpose(m).rank() == len(rref_rows(map(_sparse, m.rows))[1])
    assert rank == rank_of_rows(list(m.rows))
    if m.nrows == m.ncols:
        assert bool(m.det()) == (rank == m.nrows)
    kernel = _kernel(m)
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


def test_matrix_power_and_scalar():
    i = CycNum.zeta(4)
    r = CycMatrix([[0, 1], [-1, 0]])
    r2 = r * r
    assert r2 == CycMatrix([[-1, 0], [0, -1]])
    assert r2 * r2 == CycMatrix.identity(2)
    assert r2.is_scalar()
    assert (r * i).is_scalar() is False
    assert CycMatrix.diagonal([i, i]).is_scalar()
    # r is orthogonal: r^3 is its transpose
    assert r2 * r == _transpose(r)


def test_rref_rows_canonicalizes_span():
    def vectors(rows, keep_zeros=False):
        return [{j: CycNum.from_rat(v) for j, v in enumerate(row) if v or keep_zeros}
                for row in rows]

    rows_a = [[1, 2, 0], [0, 0, 1]]
    rows_b = [[2, 4, 2], [0, 0, 3], [1, 2, 1]]
    ech_a, piv_a = rref_rows(vectors(rows_a))
    assert ([_dense(row, 3) for row in ech_a], piv_a) == \
        oracle_rref_rows([[CycNum.from_rat(v) for v in row] for row in rows_a])
    assert rref_rows(vectors(rows_b)) == (ech_a, piv_a)
    # explicit zero values span nothing and are not stored
    assert rref_rows(vectors(rows_b, keep_zeros=True)) == (ech_a, piv_a)
    # the zero subspace: no vectors at all, or zero vectors only
    assert rref_rows([]) == rref_rows(vectors([[0, 0, 0]], keep_zeros=True)) == ([], [])
    assert rank_of_rows([[CycNum.from_rat(v) for v in row] for row in rows_b]) == 2


# -- the dense elimination, kept as the oracle ---------------------------
#
# Every `CycMatrix` elimination method and `rref_rows` run on the sparse
# echelon engine, and the complexes take kernels with `sparse_kernel`.
# These are the dense loops they replaced: the pivot is the first row with
# a nonzero entry in the current column.


def _eliminate(work: list[list[CycNum]]) -> tuple[list[int], int]:
    """Forward elimination in place, down to row echelon form.

    Row r ends with its (unnormalized) pivot in column pivots[r], and rows
    past the last pivot are zero.  Returns the pivot columns and the parity
    of the row swaps, +1 or -1.
    """
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            work[row], work[pivot] = work[pivot], work[row]
            sign = -sign
        head = work[row]
        inv = head[col].inverse()
        for r in range(row + 1, nrows):
            if work[r][col]:
                neg = -(work[r][col] * inv)
                work[r] = [a + neg * b for a, b in zip(work[r], head)]
        pivots.append(col)
    return pivots, sign


def _rref_inplace(work: list[list[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form: forward elimination, then back-substitution
    from the last pivot row up, each row along the finished rows below it."""
    pivots, _ = _eliminate(work)
    for row in range(len(pivots) - 1, -1, -1):
        rest = work[row]
        for below in range(row + 1, len(pivots)):
            c = rest[pivots[below]]
            if c:
                neg = -c
                rest = [a + neg * b for a, b in zip(rest, work[below])]
        inv = rest[pivots[row]].inverse()
        work[row] = [v * inv for v in rest]
    return work, pivots


def _work(m: CycMatrix) -> list[list[CycNum]]:
    return [list(row) for row in m.rows]


def oracle_rank(m: CycMatrix) -> int:
    return len(_eliminate(_work(m))[0])


def oracle_det(m: CycMatrix) -> CycNum:
    work = _work(m)
    pivots, sign = _eliminate(work)
    if len(pivots) < m.nrows:
        return CycNum.zero()
    result = CycNum.one()
    for i in range(m.nrows):
        result = result * work[i][i]
    return result * sign


def oracle_rref_rows(rows) -> tuple[list[tuple[CycNum, ...]], list[int]]:
    if not rows:
        return [], []
    reduced, pivots = _rref_inplace([list(row) for row in rows])
    return [tuple(reduced[i]) for i in range(len(pivots))], pivots


def oracle_inverse(m: CycMatrix) -> CycMatrix | None:
    n = m.nrows
    aug = [list(row) + list(ident)
           for row, ident in zip(m.rows, CycMatrix.identity(n).rows)]
    reduced, pivots = _rref_inplace(aug)
    if pivots != list(range(n)):
        return None
    return CycMatrix([row[n:] for row in reduced])


def oracle_kernel(m: CycMatrix) -> list[tuple[CycNum, ...]]:
    reduced, pivots = _rref_inplace(_work(m))
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        vec = [CycNum.zero()] * m.ncols
        vec[f] = CycNum.one()
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def oracle_solve(m: CycMatrix, rhs: list[CycNum]) -> tuple[CycNum, ...] | None:
    aug = [list(row) + [b] for row, b in zip(m.rows, rhs)]
    reduced, pivots = _rref_inplace(aug)
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [CycNum.zero()] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][-1]
    return tuple(x)


# Rational entries, zeros, and roots of unity of conductors 3, 4, 5 and 8
# (and sums across two), so rows mix conductors up to 120.
_MIXED = [CycNum.zero()] * 3 + [
    CycNum.from_rat(v) for v in (1, -1, 2, Fraction(1, 2), Fraction(-5, 3))
] + [CycNum.zeta(3), CycNum.zeta(4) * 2, CycNum.zeta(8) ** 3, CycNum.zeta(5),
     CycNum.zeta(3) + CycNum.zeta(4), CycNum.zeta(8) - Fraction(1, 3),
     CycNum.zeta(5, 2) + CycNum.zeta(8)]


@st.composite
def matrices(draw, square: bool = False) -> CycMatrix:
    """Matrices up to 5 x 6 over mixed conductors, with some rows and
    columns zeroed and, often, a row set to a multiple of another, so that
    singular shapes are common."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    entries = st.sampled_from(_MIXED)
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [CycNum.zero()] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = CycNum.zero()
    if nrows > 1 and draw(st.booleans()):
        i, k = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(entries)
        rows[i] = [c * v for v in rows[k]]
    return CycMatrix(rows)


ORACLE_SWEEP = settings(derandomize=True, max_examples=120, deadline=None)


@ORACLE_SWEEP
@given(matrices())
@example(CycMatrix([[0]]))
@example(CycMatrix([[0, 0, 0], [0, 0, 0]]))
@example(CycMatrix([[0, 1], [0, 2], [1, 0]]))
def test_elimination_matches_dense_oracle(m):
    assert m.rank() == oracle_rank(m)
    assert rank_of_rows(list(m.rows)) == oracle_rank(m)
    assert _kernel(m) == oracle_kernel(m)
    # every zero of the matrix is passed as an explicit zero value
    rows, leads = rref_rows(dict(enumerate(row)) for row in m.rows)
    assert all(c for row in rows for c in row.values())
    assert ([_dense(row, m.ncols) for row in rows], leads) == \
        oracle_rref_rows(list(m.rows))


def _apply(m: CycMatrix, x) -> list[CycNum]:
    return [sum((a * b for a, b in zip(row, x)), CycNum.zero()) for row in m.rows]


@st.composite
def systems(draw) -> tuple[CycMatrix, list[CycNum]]:
    """A matrix and a right-hand side, half of them consistent by
    construction: the image of a drawn vector."""
    m = draw(matrices())
    entries = st.sampled_from(_MIXED)
    if draw(st.booleans()):
        return m, _apply(m, [draw(entries) for _ in range(m.ncols)])
    return m, [draw(entries) for _ in range(m.nrows)]


@ORACLE_SWEEP
@given(systems())
@example((CycMatrix([[1, 2], [2, 4]]), [CycNum.one(), CycNum.from_rat(3)]))
@example((CycMatrix([[0, 0]]), [CycNum.zero()]))
@example((CycMatrix([[0, 0]]), [CycNum.one()]))
def test_solve_matches_dense_oracle(system):
    m, rhs = system
    x = m.solve(rhs)
    assert x == oracle_solve(m, rhs)
    if x is not None:
        assert _apply(m, x) == rhs


@st.composite
def swapped(draw) -> tuple[CycMatrix, list[int] | None]:
    """A square matrix and two distinct rows to swap, if it has two."""
    m = draw(matrices(square=True))
    if m.nrows == 1:
        return m, None
    return m, draw(st.lists(st.integers(0, m.nrows - 1), min_size=2, max_size=2,
                            unique=True))


@ORACLE_SWEEP
@given(swapped())
@example((CycMatrix([[0, 1], [1, 0]]), [0, 1]))
@example((CycMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), [0, 2]))
def test_det_and_inverse_match_dense_oracle(case):
    m, swap = case
    det = m.det()
    assert det == oracle_det(m)
    inverse = oracle_inverse(m)
    assert bool(det) == (inverse is not None)
    if inverse is not None:
        assert m * inverse == CycMatrix.identity(m.nrows)
    if swap is not None:
        # a row swap flips the sign
        i, k = swap
        rows = list(m.rows)
        rows[i], rows[k] = rows[k], rows[i]
        assert CycMatrix(rows).det() == -det


def test_trace_linear():
    a = CycMatrix([[1, 2], [3, 4]])
    b = CycMatrix([[0, 1], [1, 0]])
    total = CycMatrix([[x + y for x, y in zip(ra, rb)]
                       for ra, rb in zip(a.rows, b.rows)])
    assert total.trace() == a.trace() + b.trace()
    assert (a * b).trace() == (b * a).trace()


# -- the sparse echelon against the dense elimination --------------------


def _entry_pool(irrational: bool) -> list[CycNum]:
    pool = [CycNum.from_rat(v) for v in (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))]
    if irrational:
        z = CycNum.zeta(12)
        pool += [z, z ** 5 - 1, z * Fraction(2, 3), z ** 3 + z ** 4]
    return pool


def _random_sparse(rng, nrows, ncols, density, pool) -> CycMatrix:
    return CycMatrix([[rng.choice(pool) if rng.random() < density else 0
                       for _ in range(ncols)] for _ in range(nrows)])


def _arrow(rng, n, pool) -> CycMatrix:
    """Dense first row and column over a diagonal (plus a few stray entries),
    the shape in which eliminating the first column fills in everything."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[0][i] = rng.choice(pool)
        rows[i][0] = rng.choice(pool)
        rows[i][i] = rng.choice(pool)
    for _ in range(n // 3):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(pool)
    return CycMatrix(rows)


def _sparse_cases():
    rng = random.Random(2024)
    for irrational in (False, True):
        pool = _entry_pool(irrational)
        for density in (0.01, 0.05, 0.1, 0.2, 0.3):
            # the sparsest draws need more cells to hold any entries at all
            top = 14 if density >= 0.1 else 40
            for _ in range(3):
                nrows, ncols = rng.randint(1, top), rng.randint(1, top)
                yield _random_sparse(rng, nrows, ncols, density, pool)
        for _ in range(4):
            n, k, m = rng.randint(3, 9), rng.randint(1, 4), rng.randint(3, 9)
            a = _random_sparse(rng, n, k, 0.4, pool)
            b = _random_sparse(rng, k, m, 0.4, pool)
            yield a * b
        for n in (2, 5, 9):
            arrow = _arrow(rng, n, pool)
            yield arrow
            # a rank-deficient bordered shape: the last row repeats the first
            yield CycMatrix(arrow.rows + (arrow.rows[0],))
        yield _random_sparse(rng, 60, 70, 0.01, pool)


def _generator_constraints(rng, n: int, permuted: bool) -> CycMatrix:
    """Rows of (g - 1) over Q(zeta_12), stacked over a diagonal generator
    and, if permuted, a signed permutation one: the shape of Hom-space
    constraints.  A diagonal row is one entry zeta^k - 1; a permutation
    row is +-zeta^k in the permuted column minus 1 on the diagonal.  The
    diagonal exponent is constant on each cycle of the permutation, and
    often 0, and the roots along a cycle often multiply to 1, so common
    fixed vectors and zero rows occur."""
    z, one = CycNum.zeta(12), CycNum.one()
    perm = list(range(n))
    if permuted:
        rng.shuffle(perm)
    exponent = [None] * n
    roots = [None] * n
    for start in range(n):
        if exponent[start] is not None:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        k = rng.choice((0, 0, 0, 2, 3, 6, 9))
        product = one
        for i in cycle:
            exponent[i] = k
            roots[i] = rng.choice((one, -one)) * z ** rng.choice((0, 3, 4, 6, 11))
            product = product * roots[i]
        if rng.random() < 0.5:
            # close the cycle: the product of its roots becomes 1
            roots[cycle[-1]] = roots[cycle[-1]] * product.inverse()
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = z ** exponent[i] - one
        rows.append(row)
    if permuted:
        for i in range(n):
            row = [0] * n
            row[perm[i]] = roots[i]
            row[i] = row[i] - one
            rows.append(row)
    return CycMatrix(rows)


def _generator_constraint_cases():
    rng = random.Random(12)
    for n in (1, 3, 6, 12):
        for permuted in (False, True):
            for _ in range(2):
                yield _generator_constraints(rng, n, permuted)


def _sparse(row) -> dict:
    return {j: c for j, c in enumerate(row) if c}


def _dense(vec: dict, width: int) -> tuple:
    return tuple(vec.get(j, CycNum.zero()) for j in range(width))


def test_sparse_echelon_matches_dense_elimination():
    checked = kernels = one_entry = 0
    for m in chain(_sparse_cases(), _generator_constraint_cases()):
        # one-entry rows take the shortcut that skips the inverse
        one_entry += sum(1 for row in m.rows
                         if sum(map(bool, row)) == 1 and not any(c == 1 for c in row))
        rows = [_sparse(row) for row in m.rows]
        cols = [_sparse(col) for col in zip(*m.rows)]
        rank = oracle_rank(m)
        assert sparse_rank(rows) == sparse_rank(cols) == rank
        echelon, leads = sparse_echelon(rows)
        dense_rows, pivots = oracle_rref_rows(list(m.rows))
        assert leads == pivots and len(echelon) == rank
        assert [_dense(row, m.ncols) for row in echelon] == dense_rows
        assert all(c for row in echelon for c in row.values())
        kernel = sparse_kernel(echelon, leads, m.ncols)
        assert [_dense(vec, m.ncols) for vec in kernel] == oracle_kernel(m)
        kernels += bool(kernel)
        checked += 1
    assert checked == 52 + 16
    assert kernels > 20 and one_entry > 50


def _dense_eliminate(vector, rows, leads):
    """Sequential dense reduction along rows (1 at their lead, 0 at the
    leads of the earlier rows), the definition eliminate_along follows."""
    v = list(vector)
    coeffs = []
    for row, lead in zip(rows, leads):
        c = v[lead]
        coeffs.append(c)
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return coeffs, v


def test_eliminate_along_matches_sequential_reduction():
    rng = random.Random(99)
    for irrational in (False, True):
        pool = _entry_pool(irrational)
        for _ in range(12):
            width = rng.randint(4, 14)
            m = _random_sparse(rng, rng.randint(1, 6), width, 0.3, pool)
            rows, leads = sparse_echelon(_sparse(row) for row in m.rows)
            # append rows reduced along the ones before, as H^0 does: each
            # is 0 at the earlier leads but the earlier rows are not 0 at
            # its lead
            position = {lead: i for i, lead in enumerate(leads)}
            for _ in range(3):
                extra = _sparse([rng.choice(pool) if rng.random() < 0.4 else 0
                                 for _ in range(width)])
                _, rest = eliminate_along(extra, rows, position)
                if rest:
                    lead = min(rest)
                    inv = rest[lead].inverse()
                    position[lead] = len(rows)
                    rows.append({j: c * inv for j, c in rest.items()})
                    leads.append(lead)
            dense = [_dense(row, width) for row in rows]
            for _ in range(4):
                if rng.random() < 0.5:
                    # a combination of the rows: zero residual
                    vec = [CycNum.zero()] * width
                    for row in dense:
                        c = rng.choice(pool)
                        vec = [a + c * b for a, b in zip(vec, row)]
                else:
                    vec = [rng.choice(pool) if rng.random() < 0.3 else CycNum.zero()
                           for _ in range(width)]
                coeffs, residual = eliminate_along(_sparse(vec), rows, position)
                want_coeffs, want_residual = _dense_eliminate(vec, dense, leads)
                assert [coeffs.get(i, 0) for i in range(len(rows))] == want_coeffs
                assert _dense(residual, width) == tuple(want_residual)
                assert all(residual.values())


# -- flat coordinates against CycMatrix products ---------------------------

_FLAT_COEFFICIENTS = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4),
                      Fraction(5, 6)]


@st.composite
def flat_products(draw) -> tuple[int, CycMatrix, CycMatrix]:
    """A conductor N and two d x d matrices, d <= 3, whose entries are
    sums of up to two rational multiples of roots of unity of orders
    dividing N."""
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12, 15, 24]))
    d = draw(st.integers(1, 3))
    orders = [m for m in range(1, n + 1) if n % m == 0]
    term = st.builds(lambda c, m, k: CycNum.zeta(m, k) * c,
                     st.sampled_from(_FLAT_COEFFICIENTS),
                     st.sampled_from(orders), st.integers(0, 23))
    entry = st.lists(term, max_size=2).map(lambda ts: sum(ts, CycNum.zero()))

    def matrix():
        return CycMatrix([[draw(entry) for _ in range(d)] for _ in range(d)])

    return n, matrix(), matrix()


def _canonical(flat, size):
    coords, den = flat
    slots = [s for s, _ in coords]
    return (den > 0 and gcd(den, *(v for _, v in coords)) == 1
            and slots == sorted(set(slots)) and all(v for _, v in coords)
            and all(0 <= s < size for s in slots))


@ORACLE_SWEEP
@given(flat_products())
@example((1, CycMatrix([[Fraction(1, 2)]]), CycMatrix([[2]])))
@example((4, CycMatrix([[0, 0], [0, 0]]), CycMatrix([[1, 0], [0, 1]])))
def test_right_multiplier_matches_the_matrix_product(case):
    n, m, a = case
    d = m.nrows
    size = d * d * euler_phi(n)
    x = flatten(m, n)
    assert _canonical(x, size)
    assert unflatten(x, d, n) == m
    assert flat_trace(x, d, n) == flatten(CycMatrix([[m.trace()]]), n)
    right = RightMultiplier(a, n)
    assert right.image == flatten(a, n)
    once = right(x)
    assert _canonical(once, size)
    assert once == flatten(m * a, n)
    # the second application reuses the contributions the first built
    assert right(once) == flatten(m * a * a, n)
    # an equal input returns the kept product, still the matrix product
    again = right(flatten(m, n))
    assert again is once
    assert again == flatten(m * a, n)
