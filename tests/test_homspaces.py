"""Invariant morphism bases: equivariance, multiplicity, composition ranks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqcol
from eqcol.cyclotomic import CycNum
from eqcol.errors import BasisMismatch, NegativeDegree
from eqcol.homspaces import (
    HomElement,
    compose_hom,
    hom_space,
    monomial_basis,
)
from eqcol.linalg import rank_of_rows
from eqcol.reps import binary_dihedral, cyclic_diagonal


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
                c = elem.coords[space.flat_index_by_mono(mi, s, t)]
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
                            k = space.flat_index(beta, s2, t2)
                            out[k] = out[k] + c * pc * sig.rows[s2][s] * rinv.rows[t][t2]
    return HomElement(space, out)


def test_basis_vectors_are_equivariant(bd2, c3):
    for setup, pairs in ((bd2, [(1, 2, 0), (1, 0, 2), (2, 2, 2)]),
                         (c3, [(1, 0, 1), (2, 0, 2), (3, 1, 1)])):
        for m, rho, sigma in pairs:
            space = hom_space(setup, m, rho, sigma)
            for f in space.basis:
                for gi in range(setup.group.order):
                    assert _apply_group_action(space, f, gi) == f


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
    rows = [h2.coordinates_of(p) for p in products]
    assert rank_of_rows(rows) == 3


def test_composition_rank_cyclic_block(c3):
    # O rho_0 -> O(1) rho_1 -> O(2) rho_2: products fill all 6 dimensions
    h01 = hom_space(c3, 1, 0, 1)
    h12 = hom_space(c3, 1, 1, 2)
    h02 = hom_space(c3, 2, 0, 2)
    assert len(h01) == len(h12) == 3 and len(h02) == 6
    rows = [h02.coordinates_of(compose_hom(f, g))
            for f in h01.basis for g in h12.basis]
    assert rank_of_rows(rows) == 6


def test_composition_is_bilinear(bd2):
    f = hom_space(bd2, 1, 2, 0).basis[0]
    g = hom_space(bd2, 1, 0, 2).basis[0]
    lhs = compose_hom(f * 2, g)
    rhs = compose_hom(f, g) * 2
    assert lhs == rhs
    zero = hom_space(bd2, 1, 2, 0).zero_element()
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
        coords = space.coordinates_of(f)
        assert [bool(c) for c in coords] == [j == i for j in range(len(space))]
