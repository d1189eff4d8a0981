"""Line bundle cohomology, Koszul reduction, Euler pairing.

The independent oracle here is the closed-form alternating sum: for any two
equivariant line bundles the full Euler characteristic can be computed
directly from the two-sided cohomology formula without any K-theoretic
reduction.  Every koszul_reduce result is checked against it.  The oracle
reads its Ext dimensions from the character path (Newton power characters
and inner products), not from the integer tables behind
ext_dim_equivariant and the reduction.
"""

import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eqcol
from eqcol.cohomology import (
    EqLineBundle,
    KClass,
    ext_dim_equivariant,
    ext_table,
    euler_pairing,
    koszul_reduce,
    line_bundle_class,
)
from eqcol.cyclotomic import CycNum
from eqcol.errors import InvalidParameter
from eqcol.reps import (CharacterVec, binary_dihedral, cyclic_diagonal,
                        ext_power_character, setup_memo, sym_power_character)


def ext_dual(setup, k):
    """Character of the k-th exterior power of V-dual."""
    return ext_power_character(setup.defining_character().dual(), k)


@setup_memo
def ext_character(setup, m, k):
    """Character of Ext^k(O, O(m)) = H^k(P^n, O(m)) as a G-module."""
    n = setup.n
    if k == 0 and m >= 0:
        return sym_power_character(setup.defining_character().dual(), m)
    if k == n and m <= -n - 1:
        return sym_power_character(setup.defining_character(), -m - n - 1) \
            * setup.det_character()
    return CharacterVec.zero(setup.group)


def ext_dim_oracle(setup, source, target, k):
    """dim Ext^k of two line bundles as a character inner product."""
    chi = ext_character(setup, target.twist - source.twist, k)
    chi = chi * setup.irreps[target.irrep].character()
    return chi.inner_int(setup.irreps[source.irrep].character())


def euler_oracle(setup, source, target):
    """sum_k (-1)^k dim Ext^k, straight from the cohomology formula."""
    total = 0
    for k in range(setup.n + 1):
        sign = 1 if k % 2 == 0 else -1
        total += sign * ext_dim_oracle(setup, source, target, k)
    return total


@pytest.fixture(scope="module")
def p1():
    return cyclic_diagonal(1, [0, 0])


@pytest.fixture(scope="module")
def bd2():
    return binary_dihedral(2)


@pytest.fixture(scope="module")
def c3():
    return cyclic_diagonal(3, [1, 1, 1])


@pytest.fixture(scope="module")
def c4_nonsl():
    # det of the defining rep is nontrivial here, which makes the
    # alternating-sum test sensitive to the determinant twist convention.
    return cyclic_diagonal(4, [1, 1])


def test_global_sections_dimensions(p1):
    assert ext_character(p1, 0, 0).dim() == 1
    assert ext_character(p1, 1, 0).dim() == 2
    assert ext_character(p1, 5, 0).dim() == 6


def test_top_cohomology_dimensions(p1):
    assert ext_character(p1, -2, 1).dim() == 1
    assert ext_character(p1, -3, 1).dim() == 2
    assert ext_character(p1, -1, 1).dim() == 0
    assert ext_character(p1, -1, 0).dim() == 0


def test_vanishing_outside_extreme_degrees(c3):
    for m in range(-8, 9):
        assert ext_character(c3, m, 1).dim() == 0
    assert ext_character(c3, 2, 2).dim() == 0
    assert ext_character(c3, -3, 0).dim() == 0


def test_top_cohomology_of_minus_two_is_trivial_rep(bd2):
    chi = ext_character(bd2, -2, 1)
    assert chi == CharacterVec.trivial(bd2.group)


def test_ext_dim_matches_hom_dim_forward(bd2, c3):
    for setup in (bd2, c3):
        r = setup.r_plus_1
        for m in range(0, setup.n + 1):
            for rho in range(r):
                for sigma in range(r):
                    lhs = ext_dim_equivariant(
                        setup, EqLineBundle(0, rho), EqLineBundle(m, sigma), 0)
                    assert lhs == setup.hom_dim(0, m, rho, sigma)


def test_ext_table_single_entries(bd2, c3):
    assert ext_table(bd2, EqLineBundle(0, 2), EqLineBundle(1, 0)) == {0: 1}
    assert ext_table(bd2, EqLineBundle(0, 0), EqLineBundle(-2, 0)) == {1: 1}
    # degree-(-3) classes on the plane land in top cohomology
    assert ext_table(c3, EqLineBundle(3, 0), EqLineBundle(0, 0)) == {2: 1}
    assert ext_table(c3, EqLineBundle(1, 1), EqLineBundle(0, 1)) == {}


def test_twist_window_is_semiorthogonal(bd2, c3):
    # backward pairs inside the window have no Ext in any degree
    for setup in (bd2, c3):
        r = setup.r_plus_1
        for gap in range(1, setup.n + 1):
            for rho in range(r):
                for sigma in range(r):
                    for k in range(setup.n + 1):
                        assert ext_dim_equivariant(
                            setup, EqLineBundle(gap, rho),
                            EqLineBundle(0, sigma), k) == 0


def test_endomorphisms_are_one_dimensional(bd2, c3):
    for setup in (bd2, c3):
        for j in range(setup.r_plus_1):
            bundle = EqLineBundle(1, j)
            assert ext_table(setup, bundle, bundle) == {0: 1}


def test_koszul_alternating_sum_vanishes(p1, bd2, c3, c4_nonsl):
    # the exact sequence built from the coordinate ring's defining
    # relations forces the signed sum of cohomology characters to zero
    for setup in (p1, bd2, c3, c4_nonsl):
        n = setup.n
        for m in range(-2 * n - 2, 2 * n + 3):
            total = CharacterVec.zero(setup.group)
            for k in range(0, n + 2):
                sign = 1 if k % 2 == 0 else -1
                inner = CharacterVec.zero(setup.group)
                for i in (0, n):
                    isign = 1 if i % 2 == 0 else -1
                    inner = inner + ext_character(setup, m - k, i) * isign
                total = total + ext_dual(setup, k) * inner * sign
            assert total == CharacterVec.zero(setup.group), (setup, m)


def test_window_classes_reduce_to_themselves(bd2, c3):
    for setup in (bd2, c3):
        for i in range(setup.n + 1):
            for j in range(setup.r_plus_1):
                assert koszul_reduce(setup, i, j) == KClass.basis(setup, i, j)


def test_reduction_on_the_line(p1):
    o = KClass.basis(p1, 0, 0)
    o1 = KClass.basis(p1, 1, 0)
    assert koszul_reduce(p1, 2, 0) == 2 * o1 - o
    assert koszul_reduce(p1, 3, 0) == 3 * o1 - 2 * o
    assert koszul_reduce(p1, -1, 0) == 2 * o - o1
    assert koszul_reduce(p1, -2, 0) == 3 * o - 2 * o1


def test_reduction_cyclic_plane(c3):
    expected = (3 * KClass.basis(c3, 2, 2)
                - 3 * KClass.basis(c3, 1, 1)
                + KClass.basis(c3, 0, 0))
    assert koszul_reduce(c3, 3, 0) == expected


def test_reduction_accepts_characters(c3):
    chi = c3.irreps[0].character() + c3.irreps[1].character()
    combined = koszul_reduce(c3, 3, chi)
    assert combined == koszul_reduce(c3, 3, 0) + koszul_reduce(c3, 3, 1)


def test_reduction_preserves_euler_pairing(p1, bd2, c3, c4_nonsl):
    for setup in (p1, bd2, c3, c4_nonsl):
        n = setup.n
        for m in range(-2 * n - 2, 2 * n + 3):
            for j in range(setup.r_plus_1):
                reduced = koszul_reduce(setup, m, j)
                bundle = EqLineBundle(m, j)
                for i in range(n + 1):
                    for l in range(setup.r_plus_1):
                        basis_bundle = EqLineBundle(i, l)
                        basis_class = KClass.basis(setup, i, l)
                        assert euler_pairing(reduced, basis_class) == \
                            euler_oracle(setup, bundle, basis_bundle)
                        assert euler_pairing(basis_class, reduced) == \
                            euler_oracle(setup, basis_bundle, bundle)


def test_far_twists_reduce_with_bounded_depth():
    # A fresh setup, so every twist outside the window is a miss.  The
    # twists between the window and m are reduced in order, so the call
    # depth must not grow with |m|; the Euler pairing with each window
    # class is read from the integer tables of ext_table, which share no
    # code with the Koszul reduction.
    setup = cyclic_diagonal(3, [1, 1, 1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        classes = {(m, j): line_bundle_class(setup, EqLineBundle(m, j))
                   for m in (700, 5000, -5000) for j in range(setup.r_plus_1)}
    finally:
        sys.setrecursionlimit(limit)
    for (m, j), cls in classes.items():
        for i in range(setup.n + 1):
            for l in range(setup.r_plus_1):
                table = ext_table(setup, EqLineBundle(i, l), EqLineBundle(m, j))
                assert euler_pairing(KClass.basis(setup, i, l), cls) == \
                    sum((-1) ** k * dim for k, dim in table.items()), (m, j, i, l)


def _every_row_walk(setup, m):
    """The classes of O(m) tensor rho_j over j, from a Koszul walk away from
    the window that keeps the class of every twist it reaches."""
    n, irreps = setup.n, range(setup.r_plus_1)
    rows = {t: [KClass.basis(setup, t, j) for j in irreps] for t in range(n + 1)}
    step = 1 if m > n else -1
    t = n if m > n else 0
    while t != m:
        t += step
        rows[t] = []
        for j in irreps:
            cls = KClass.zero(setup)
            if step > 0:
                for k in range(1, n + 2):
                    for l, mult in setup.lambda_table(k)[j]:
                        cls = cls + rows[t - k][l] * ((-1) ** (k + 1) * mult)
            else:
                for k in range(n + 1):
                    for l, mult in setup.lambda_table(k)[j] if k else ((j, 1),):
                        cls = cls + rows[t + n + 1 - k][setup.det_twist(l)] * \
                            ((-1) ** (n + k) * mult)
            rows[t].append(cls)
    return rows[m]


_FAR_TWIST_CHILD = """
import re
from eqcol.cohomology import EqLineBundle, line_bundle_class
from eqcol.reps import cyclic_diagonal

line_bundle_class(cyclic_diagonal(3, [1, 1, 1]), EqLineBundle(50000, 0))
with open("/proc/self/status") as status:
    print(re.search(r"^VmHWM:\\s*(\\d+) kB", status.read(), re.M).group(1))
"""


def test_far_twists_keep_only_the_last_rows():
    # Each Koszul step reads the n + 1 twists next to it, so the walk keeps
    # only those: k = 50,000 took 61.9 MB when every row was kept.  A fresh
    # interpreter keeps the peak RSS of this run alone.
    env = dict(os.environ, PYTHONPATH=str(Path(eqcol.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", _FAR_TWIST_CHILD],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024
    # Far, then nearer than the kept rows (a second walk from the window),
    # then within them, on both sides.
    setup = cyclic_diagonal(3, [1, 1, 1])
    for m in (5000, 4000, 3997, 3999, -5000, -4998, -4000):
        assert [line_bundle_class(setup, EqLineBundle(m, j))
                for j in range(setup.r_plus_1)] == _every_row_walk(setup, m), m


def test_euler_pairing_on_the_line(p1):
    o = line_bundle_class(p1, EqLineBundle(0, 0))
    for m in range(-3, 4):
        om = koszul_reduce(p1, m, 0)
        assert euler_pairing(o, om) == m + 1


def test_serre_duality(p1, bd2, c3):
    for setup in (p1, bd2, c3):
        n = setup.n
        det_dual = ext_dual(setup, n + 1)
        for i1 in range(n + 1):
            for j1 in range(setup.r_plus_1):
                twisted = det_dual * setup.irreps[j1].character()
                for i2 in range(n + 1):
                    for j2 in range(setup.r_plus_1):
                        for k in range(n + 1):
                            lhs = ext_dim_equivariant(
                                setup, EqLineBundle(i1, j1),
                                EqLineBundle(i2, j2), k)
                            rhs = 0
                            for l, rep in enumerate(setup.irreps):
                                mult = twisted.inner_int(rep.character())
                                if mult:
                                    rhs += mult * ext_dim_equivariant(
                                        setup, EqLineBundle(i2, j2),
                                        EqLineBundle(i1 - n - 1, l), n - k)
                            assert lhs == rhs, (setup, i1, j1, i2, j2, k)


def test_basis_pairing_is_unitriangular(bd2, c3):
    for setup in (bd2, c3):
        classes = [(i, j) for i in range(setup.n + 1)
                   for j in range(setup.r_plus_1)]
        for a, (i1, j1) in enumerate(classes):
            for b, (i2, j2) in enumerate(classes):
                value = euler_pairing(KClass.basis(setup, i1, j1),
                                      KClass.basis(setup, i2, j2))
                if a == b:
                    assert value == 1
                elif b < a:
                    assert value == 0


def test_kclass_arithmetic(c3):
    x = KClass.basis(c3, 0, 0)
    y = KClass.basis(c3, 1, 2)
    assert (x + y) - y == x
    assert -(x - y) == y - x
    assert 3 * x == x + x + x
    assert x != y
    assert hash(2 * x) == hash(x + x)
    with pytest.raises(InvalidParameter):
        KClass.index(c3, 3, 0)
    with pytest.raises(InvalidParameter):
        KClass.index(c3, 0, 5)


def test_labels(bd2):
    assert EqLineBundle(0, 2).label(bd2) == "O@rho_2"
    assert EqLineBundle(1, 0).label(bd2) == "O(1)@rho_0"
    assert EqLineBundle(-2, 4).label(bd2) == "O(-2)@rho_4"
    assert EqLineBundle(1, 3).twisted(-1) == EqLineBundle(0, 3)


@pytest.mark.parametrize("bad", [Fraction(3, 2), 1.0, 0.5, "1", None,
                                 CycNum.from_rat(1)])
def test_kclass_rejects_non_integers(bd2, bad):
    width = bd2.n_plus_1 * bd2.r_plus_1
    with pytest.raises(InvalidParameter, match="coefficient .* not an integer"):
        KClass(bd2, [bad] + [0] * (width - 1))
    with pytest.raises(InvalidParameter, match="scalar .* not an integer"):
        KClass.basis(bd2, 0, 1) * bad
    with pytest.raises(InvalidParameter, match="scalar .* not an integer"):
        bad * KClass.basis(bd2, 0, 1)


def test_kclass_arithmetic_matches_coefficient_lists(bd2):
    rng = random.Random(21)
    width = bd2.n_plus_1 * bd2.r_plus_1
    assert KClass(bd2, [Fraction(4, 2)] + [True] + [0] * (width - 2)).coeffs \
        == (2, 1) + (0,) * (width - 2)
    for _ in range(30):
        a = [rng.randint(-5, 5) for _ in range(width)]
        b = [rng.randint(-5, 5) for _ in range(width)]
        k = rng.randint(-4, 4)
        x, y = KClass(bd2, a), KClass(bd2, b)
        for result, expected in [
                (x + y, [p + q for p, q in zip(a, b)]),
                (x - y, [p - q for p, q in zip(a, b)]),
                (-x, [-p for p in a]),
                (x * k, [p * k for p in a]),
                (k * x, [p * k for p in a]),
                (x * Fraction(2 * k, 2), [p * k for p in a])]:
            assert result == KClass(bd2, expected)
            assert type(result.coeffs) is tuple
            assert all(type(c) is int for c in result.coeffs)
            assert hash(result) == hash(KClass(bd2, expected))
    assert KClass.zero(bd2) == KClass(bd2, [0] * width)
    assert KClass.basis(bd2, 1, 2).coeffs[bd2.r_plus_1 + 2] == 1
