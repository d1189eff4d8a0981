"""Invariant morphism bases: equivariance, multiplicity, composition ranks."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import eqcol
from eqcol.cyclotomic import CycNum
from eqcol.errors import BasisMismatch, NegativeDegree
from eqcol.homspaces import (
    HomElement,
    _poly_mul,
    compose_hom,
    hom_space,
    monomial_basis,
)
from eqcol.linalg import CycMatrix, rank_of_rows
from eqcol.reps import binary_dihedral, cyclic_diagonal, setup_memo
from test_linalg import oracle_rref_rows, oracle_solve
from test_repring import build, specs


def _element(space, coords):
    """The element with the dense ambient coordinates coords."""
    coords = tuple(coords)
    assert len(coords) == space.ambient_dim
    return HomElement(space, {j: c for j, c in enumerate(coords) if c})


def _zero(space):
    return _element(space, [CycNum.zero()] * space.ambient_dim)


def _dense(elem):
    """The ambient coordinates of an element, zeros included."""
    return tuple(elem.entries.get(j, CycNum.zero())
                 for j in range(elem.space.ambient_dim))


def _coordinates(space, elem):
    """The dense tuple of `sparse_coordinates`."""
    coords = space.sparse_coordinates(elem)
    return tuple(coords.get(i, CycNum.zero()) for i in range(len(space)))


@pytest.fixture(scope="module")
def bd2():
    return binary_dihedral(2)


@pytest.fixture(scope="module")
def c3():
    return cyclic_diagonal(3, [1, 1, 1])


@pytest.fixture(scope="module")
def free2():
    return cyclic_diagonal(1, [1, 1])


def test_monomial_basis_order():
    assert monomial_basis(2, 1) == [(1, 0), (0, 1)]
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomial_basis(3, 4)) == 15


def _apply_group_action(space, elem, gi):
    """Independent recomputation of (g * H): substitute, then conjugate."""
    setup = space.setup
    group = setup.group
    rho = setup.irreps[space.rho_index]
    sigma = setup.irreps[space.sigma_index]
    ginv = group.elements[group.inv(gi)]
    nv = setup.n_plus_1
    out = [CycNum.zero()] * space.ambient_dim
    for mi, alpha in enumerate(space.monomials):
        # expand the substituted monomial
        poly = {tuple([0] * nv): CycNum.one()}
        for i, e in enumerate(alpha):
            form = {tuple(1 if t == j else 0 for t in range(nv)): ginv.rows[i][j]
                    for j in range(nv) if ginv.rows[i][j]}
            for _ in range(e):
                new = {}
                for ea, ca in poly.items():
                    for eb, cb in form.items():
                        key = tuple(x + y for x, y in zip(ea, eb))
                        new[key] = new.get(key, CycNum.zero()) + ca * cb
                poly = new
        for s in range(space.dim_sigma):
            for t in range(space.dim_rho):
                c = elem.entries.get(space.flat_index_by_mono(mi, s, t))
                if not c:
                    continue
                sig = sigma.matrix(gi)
                rinv = rho.matrix(group.inv(gi))
                for beta, pc in poly.items():
                    for s2 in range(space.dim_sigma):
                        if not sig.rows[s2][s]:
                            continue
                        for t2 in range(space.dim_rho):
                            if not rinv.rows[t][t2]:
                                continue
                            k = space.flat_index_by_mono(space.monomials.index(beta), s2, t2)
                            out[k] = out[k] + c * pc * sig.rows[s2][s] * rinv.rows[t][t2]
    return _element(space, out)


def test_basis_vectors_are_equivariant(bd2, c3):
    # bd3 has two generators and bases with entries in Q(zeta_12) \ Q.
    bd3 = binary_dihedral(3)
    irrational = 0
    for setup, pairs in ((bd2, [(1, 2, 0), (1, 0, 2), (2, 2, 2)]),
                         (c3, [(1, 0, 1), (2, 0, 2), (3, 1, 1)]),
                         (bd3, [(1, 3, 4), (1, 4, 3), (2, 2, 4), (3, 2, 3), (3, 4, 0)])):
        for m, rho, sigma in pairs:
            space = hom_space(setup, m, rho, sigma)
            assert len(space)
            for f in space.basis:
                irrational += any(c.reduced().conductor != 1 for c in _dense(f))
                for gi in range(setup.group.order):
                    assert _apply_group_action(space, f, gi) == f
    assert irrational


def test_basis_length_equals_multiplicity(bd2, c3):
    for setup in (bd2, c3):
        r = len(setup.irreps)
        for m in range(4):
            for rho in range(r):
                for sigma in range(r):
                    space = hom_space(setup, m, rho, sigma)
                    assert len(space) == setup.hom_dim(0, m, rho, sigma)


# Run under -O: the multiplicity check must not depend on assert statements.
_WRONG_MULTIPLICITY = """
import sys
from eqcol.errors import BasisMismatch
from eqcol.homspaces import hom_space
from eqcol.reps import binary_dihedral

if __debug__:
    sys.exit("not running under -O")
setup = binary_dihedral(2)
true_dim = setup.hom_dim
setup.hom_dim = lambda a, b, rho, sigma: true_dim(a, b, rho, sigma) + 1
try:
    space = hom_space(setup, 1, 2, 0)
except BasisMismatch:
    sys.exit(0)
sys.exit(f"built {len(space)} basis vectors against multiplicity 2")
"""


def test_basis_size_mismatch_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(eqcol.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_MULTIPLICITY],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_identity_element_is_basis_of_endos(bd2):
    for rho in range(5):
        space = hom_space(bd2, 0, rho, rho)
        assert len(space) == 1
        assert space.basis[0] == space.identity_element()


def test_identity_composes_neutrally(bd2):
    ident = hom_space(bd2, 0, 2, 2).identity_element()
    space = hom_space(bd2, 1, 2, 0)
    for f in space.basis:
        assert compose_hom(ident, f) == f
    ident0 = hom_space(bd2, 0, 0, 0).identity_element()
    for f in space.basis:
        assert compose_hom(f, ident0) == f


def test_composition_rank_free_case(free2):
    # no group: Hom(O, O(1)) x Hom(O(1), O(2)) spans all of Sym^2 (dim 3)
    h1 = hom_space(free2, 1, 0, 0)
    h2 = hom_space(free2, 2, 0, 0)
    assert len(h1) == 2 and len(h2) == 3
    products = [compose_hom(f, g) for f in h1.basis for g in h1.basis]
    rows = [_coordinates(h2, p) for p in products]
    assert rank_of_rows(rows) == 3


def test_composition_rank_cyclic_block(c3):
    # O rho_0 -> O(1) rho_1 -> O(2) rho_2: products fill all 6 dimensions
    h01 = hom_space(c3, 1, 0, 1)
    h12 = hom_space(c3, 1, 1, 2)
    h02 = hom_space(c3, 2, 0, 2)
    assert len(h01) == len(h12) == 3 and len(h02) == 6
    rows = [_coordinates(h02, compose_hom(f, g))
            for f in h01.basis for g in h12.basis]
    assert rank_of_rows(rows) == 6


def test_composition_is_bilinear(bd2):
    f = hom_space(bd2, 1, 2, 0).basis[0]
    g = hom_space(bd2, 1, 0, 2).basis[0]
    lhs = compose_hom(f * 2, g)
    rhs = compose_hom(f, g) * 2
    assert lhs == rhs
    zero = _zero(hom_space(bd2, 1, 2, 0))
    assert not compose_hom(zero, g)


def test_compose_rejects_bad_middle(bd2):
    f = hom_space(bd2, 1, 0, 2).basis[0]
    g = hom_space(bd2, 1, 0, 2).basis[0]
    with pytest.raises(BasisMismatch):
        compose_hom(f, g)


def test_negative_degree_raises(bd2):
    with pytest.raises(NegativeDegree):
        hom_space(bd2, -1, 0, 0)


def test_coordinates_round_trip(c3):
    space = hom_space(c3, 2, 0, 2)
    for i, f in enumerate(space.basis):
        coords = _coordinates(space, f)
        assert [bool(c) for c in coords] == [j == i for j in range(len(space))]


def _solve_coordinates(space, elem):
    """The column solve that sparse_coordinates replaced, kept as its oracle."""
    basis = [_dense(b) for b in space.basis]
    columns = CycMatrix([[b[i] for b in basis] for i in range(space.ambient_dim)])
    return oracle_solve(columns, _dense(elem))


def _spaces(setup, degrees):
    r = len(setup.irreps)
    for m in degrees:
        for rho in range(r):
            for sigma in range(r):
                yield hom_space(setup, m, rho, sigma)


def test_coordinates_match_solve_oracle(bd2, c3):
    # bd3 carries basis entries in Q(zeta_12) \ Q; bd2 and c3 bases are
    # rational, so irrational coefficients give irrational elements there.
    rng = random.Random(20261018)
    scalars = [CycNum.from_rat(Fraction(p, q)) for p in (-3, -1, 1, 2) for q in (1, 5)]
    scalars += [CycNum.zeta(3), CycNum.zeta(4) - 2, CycNum.zeta(8) * Fraction(1, 3)]
    irrational_basis = checked = 0
    for setup in (bd2, c3, binary_dihedral(3)):
        for space in _spaces(setup, range(4)):
            if not len(space):
                continue
            irrational_basis += any(c.reduced().conductor != 1
                                    for b in space.basis for c in _dense(b))
            for _ in range(3):
                coeffs = [rng.choice(scalars + [CycNum.zero()]) for _ in space.basis]
                elem = _zero(space)
                for c, b in zip(coeffs, space.basis):
                    elem = elem + b * c
                got = _coordinates(space, elem)
                assert got == tuple(coeffs)
                assert got == _solve_coordinates(space, elem)
                checked += 1
    assert irrational_basis and checked > 100


def test_non_invariant_vector_raises(bd2, c3):
    # Every unit vector of the ambient space is in the span exactly when the
    # oracle solve finds coordinates; the others must raise, including every
    # nonzero vector of a zero space.
    outside = 0
    for setup in (bd2, c3):
        for space in _spaces(setup, range(3)):
            for k in range(space.ambient_dim):
                unit = [CycNum.zero()] * space.ambient_dim
                unit[k] = CycNum.one()
                elem = _element(space, unit)
                expected = _solve_coordinates(space, elem) if len(space) else None
                if expected is None:
                    outside += 1
                    with pytest.raises(BasisMismatch):
                        _coordinates(space, elem)
                else:
                    assert _coordinates(space, elem) == expected
    assert outside
    zero_space = hom_space(c3, 0, 0, 1)
    assert not len(zero_space)
    assert _coordinates(zero_space, _zero(zero_space)) == ()


@setup_memo
def _reynolds_basis(setup, m, rho_index, sigma_index):
    """The echelon basis of the Reynolds average over all |G| elements,
    the construction the generator kernel replaced, kept as its oracle."""
    group = setup.group
    rho, sigma = setup.irreps[rho_index], setup.irreps[sigma_index]
    dr, ds = rho.dim, sigma.dim
    nv = setup.n_plus_1
    monos = monomial_basis(nv, m)
    midx = {a: i for i, a in enumerate(monos)}
    total = len(monos) * ds * dr
    images = []
    for ai, alpha in enumerate(monos):
        for s in range(ds):
            for t in range(dr):
                vec = [CycNum.zero()] * total
                for gi in range(group.order):
                    ginv = group.elements[group.inv(gi)]
                    poly = {tuple([0] * nv): CycNum.one()}
                    for i, e in enumerate(alpha):
                        form = {tuple(1 if u == j else 0 for u in range(nv)):
                                ginv.rows[i][j]
                                for j in range(nv) if ginv.rows[i][j]}
                        for _ in range(e):
                            poly = _poly_mul(poly, form)
                    sig = sigma.matrix(gi)
                    rho_inv = rho.matrix(group.inv(gi))
                    for beta, c in poly.items():
                        for s2 in range(ds):
                            for t2 in range(dr):
                                k = (midx[beta] * ds + s2) * dr + t2
                                vec[k] = (vec[k] + c * sig.rows[s2][s]
                                          * rho_inv.rows[t][t2])
                images.append([v * Fraction(1, group.order) for v in vec])
    rows, pivots = oracle_rref_rows(images)
    return [tuple(v.reduced() for v in row) for row in rows], pivots


def _stored(coords):
    return tuple((c.conductor, c.num, c.den) for c in coords)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(specs)
@example(("cyclic", 4, (1, 1)))
@example(("cyclic", 1, (1, 1)))
@example(("binary_dihedral", 6))
@example(("explicit",))
def test_generator_kernel_matches_reynolds_average(spec):
    # The reduced echelon basis of a subspace is unique, so the kernel of
    # (g * -) - 1 over the generators must reproduce the average over the
    # whole group entry for entry, with the same pivots and stored forms.
    setup = build(spec)
    r = len(setup.irreps)
    for m in range(4):
        for rho in range(r):
            for sigma in range(r):
                space = hom_space(setup, m, rho, sigma)
                rows, pivots = _reynolds_basis(setup, m, rho, sigma)
                assert list(space.pivots) == list(pivots)
                assert [_stored(_dense(b)) for b in space.basis] == \
                    [_stored(row) for row in rows]
                if not setup.group.generators:
                    # no generator, no constraint: every unit vector
                    assert space.pivots == list(range(space.ambient_dim))
                    assert all(b.entries == {p: 1}
                               for b, p in zip(space.basis, space.pivots))


def _dense_compose(f, g):
    """The dense composition loop compose_hom replaced, kept as its oracle:
    every ambient pair of f and g, zeros included."""
    fs, gs = f.space, g.space
    target = hom_space(fs.setup, fs.m + gs.m, fs.rho_index, gs.sigma_index)
    fc, gc = _dense(f), _dense(g)
    coords = [CycNum.zero()] * target.ambient_dim
    for ai, alpha in enumerate(fs.monomials):
        for s in range(fs.dim_sigma):
            for t in range(fs.dim_rho):
                cf = fc[fs.flat_index_by_mono(ai, s, t)]
                if not cf:
                    continue
                for bi, beta in enumerate(gs.monomials):
                    for s2 in range(gs.dim_sigma):
                        cg = gc[gs.flat_index_by_mono(bi, s2, s)]
                        if not cg:
                            continue
                        gamma = tuple(x + y for x, y in zip(alpha, beta))
                        k = target.flat_index_by_mono(target.monomials.index(gamma), s2, t)
                        coords[k] = coords[k] + cf * cg
    return target, tuple(coords)


def _dense_coordinates(space, elem):
    """The dense coordinate read sparse_coordinates replaced, kept as its
    oracle: the entries at the pivots, then the whole ambient residual;
    None when the element is outside the span."""
    values = _dense(elem)
    coords = tuple(values[p] for p in space.pivots)
    residual = list(values)
    for c, b in zip(coords, space.basis):
        if c:
            for j, x in enumerate(_dense(b)):
                residual[j] = residual[j] - c * x
    return None if any(residual) else coords


_SCALARS = ([CycNum.from_rat(Fraction(p, q)) for p in (-2, 1, 3) for q in (1, 4)]
            + [CycNum.zeta(3), CycNum.zeta(4) - 2, CycNum.zero()])


def _combination(rng, space):
    elem = _zero(space)
    for b in space.basis:
        elem = elem + b * rng.choice(_SCALARS)
    return elem


def _check_coordinates(space, elem):
    oracle = _dense_coordinates(space, elem)
    if oracle is None:
        with pytest.raises(BasisMismatch):
            space.sparse_coordinates(elem)
        return False
    assert space.sparse_coordinates(elem) == {i: c for i, c in enumerate(oracle) if c}
    return True


@settings(derandomize=True, max_examples=20, deadline=None)
@given(specs)
@example(("cyclic", 4, (1, 1)))
@example(("cyclic", 1, (1, 1)))
@example(("binary_dihedral", 6))
@example(("explicit",))
def test_sparse_composition_and_coordinates_match_dense_oracles(spec):
    # Composition and coordinates visit the stored nonzero entries only;
    # the dense loops over every ambient index must agree with them on
    # every basis pair and on random combinations, irrational ones
    # included, and every unit vector outside a span must raise in both.
    setup = build(spec)
    rng = random.Random(repr(spec))
    r = len(setup.irreps)
    for m in range(3):
        for rho in range(r):
            for sigma in range(r):
                space = hom_space(setup, m, rho, sigma)
                for k in range(space.ambient_dim):
                    unit = [CycNum.zero()] * space.ambient_dim
                    unit[k] = CycNum.one()
                    _check_coordinates(space, _element(space, unit))
    for m1 in range(3):
        for m2 in range(3):
            for rho in range(r):
                for sigma in range(r):
                    first = hom_space(setup, m1, rho, sigma)
                    if not len(first):
                        continue
                    for tau in range(r):
                        second = hom_space(setup, m2, sigma, tau)
                        if not len(second):
                            continue
                        pairs = [(f, g) for f in first.basis for g in second.basis]
                        pairs += [(_combination(rng, first), _combination(rng, second))
                                  for _ in range(2)]
                        for f, g in pairs:
                            comp = compose_hom(f, g)
                            target, expected = _dense_compose(f, g)
                            assert comp.space is target
                            assert _dense(comp) == expected
                            assert all(comp.entries.values())
                            assert _check_coordinates(target, comp)


def test_element_invariants(bd2):
    space = hom_space(bd2, 2, 2, 2)
    f = space.basis[0] + space.basis[1] * Fraction(-1, 3)
    zeta = CycNum.zeta(3)
    # the round trip stores its values at conductor 3, f at conductor 1
    back = (f * zeta + f) - f * zeta
    assert {v.conductor for v in back.entries.values()} == {3}
    assert {v.conductor for v in f.entries.values()} == {1}
    assert back == f and hash(back) == hash(f)
    assert len({back, f}) == 1
    assert -f == f * -1 and hash(-f) == hash(f * -1)
    for empty in (f - f, _zero(space), f * 0, 0 * f, f + (-f)):
        assert not empty and empty.entries == {}
        assert empty == _zero(space)
        assert hash(empty) == hash(_zero(space))
    assert all(f.entries.values())
    other = hom_space(bd2, 1, 2, 0).basis[0]
    with pytest.raises(BasisMismatch):
        f + other
    with pytest.raises(BasisMismatch):
        f - other
