"""Complexes of equivariant line bundles: Hom complexes, cones, mutations.

Closed-form line bundle cohomology (cohomology module) serves as the
independent oracle for every Hom-complex rank computed here.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eqcol.complexes as complexes
import eqcol.excol as excol
from eqcol.cohomology import EqLineBundle, KClass, ext_dim_equivariant, euler_pairing, koszul_reduce
from eqcol.complexes import (
    ChainMap,
    EqComplex,
    HomComplexData,
    _block_product,
    _glue,
    _negated_copies,
    cohomology_basis,
    compose_chain_maps,
    ext_dims,
    from_line_bundle,
    hom_complex,
    identity_chain_map,
    left_mutation,
    pair_ext_dims,
    right_mutation,
)
from eqcol.config import hom_complex_cap
from eqcol.cyclotomic import CycNum
from eqcol.errors import (
    BasisMismatch,
    HomComplexCapExceeded,
    InvalidParameter,
    WindowViolation,
)
from eqcol.excol import beilinson_collection, cascade_mutation
from eqcol.homspaces import HomElement, compose_hom, hom_space
from eqcol.reps import binary_dihedral, cyclic_diagonal
from eqcol.scenario import build_setup, load_scenario, parse_scenario, run_scenario
from test_homspaces import _element
from test_repring import build as build_repring_setup, specs as repring_specs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def p1():
    return cyclic_diagonal(1, [0, 0])


@pytest.fixture(scope="module")
def p2():
    return cyclic_diagonal(1, [0, 0, 0])


@pytest.fixture(scope="module")
def bd2():
    return binary_dihedral(2)


@pytest.fixture(scope="module")
def c3():
    return cyclic_diagonal(3, [1, 1, 1])


def lb(setup, twist, irrep, degree=0):
    return from_line_bundle(setup, EqLineBundle(twist, irrep), degree)


def closed_form(setup, a, b):
    out = {}
    for k in range(setup.n + 1):
        dim = ext_dim_equivariant(setup, a, b, k)
        if dim:
            out[k] = dim
    return out


def test_from_line_bundle_shape(bd2):
    C = lb(bd2, 0, 0)
    assert C.degrees == [0]
    assert C.terms[0] == (EqLineBundle(0, 0),)
    assert C.diffs == {}
    assert C.is_line_bundle()
    assert C.label() == "O@rho_0"


def test_ext_dims_matches_closed_form(bd2, c3):
    for setup in (bd2, c3):
        for i1 in range(setup.n + 1):
            for j1 in range(setup.r_plus_1):
                for i2 in range(setup.n + 1):
                    for j2 in range(setup.r_plus_1):
                        a = EqLineBundle(i1, j1)
                        b = EqLineBundle(i2, j2)
                        got = ext_dims(from_line_bundle(setup, a),
                                       from_line_bundle(setup, b))
                        assert got == closed_form(setup, a, b)


def test_ext_dims_shift(bd2):
    E = lb(bd2, 0, 2)
    F = lb(bd2, 1, 0)
    base = ext_dims(E, F)
    shifted = ext_dims(E.shift(1), F)
    assert shifted == {k + 1: v for k, v in base.items()}
    assert ext_dims(E, F.shift(1)) == {k - 1: v for k, v in base.items()}


def test_beilinson_number_on_the_plane(p2):
    assert ext_dims(lb(p2, 0, 0), lb(p2, 2, 0)) == {0: 6}


def test_window_violation(bd2):
    with pytest.raises(WindowViolation):
        ext_dims(lb(bd2, 2, 0), lb(bd2, 0, 0))


def test_complex_span_cap(p1):
    with pytest.raises(WindowViolation):
        EqComplex(p1, {0: (EqLineBundle(0, 0),), 1: (EqLineBundle(2, 0),)})


def test_complex_differential_square(p2):
    x1 = hom_space(p2, 1, 0, 0)
    d0 = x1.basis[0]
    with pytest.raises(InvalidParameter, match="d following d is nonzero at"
                                               " degree 0, source 0, target 0"):
        EqComplex(
            p2,
            {0: (EqLineBundle(0, 0),), 1: (EqLineBundle(1, 0),),
             2: (EqLineBundle(2, 0),)},
            {0: {(0, 0): d0},
             1: {(0, 0): hom_space(p2, 1, 0, 0).basis[0]}},
        )
    # the error names the first (source, target) pair whose composite is
    # nonzero: source 0 passes through its own middle summand to nothing
    with pytest.raises(InvalidParameter, match="d following d is nonzero at"
                                               " degree 0, source 1, target 0"):
        EqComplex(
            p2,
            {0: (EqLineBundle(0, 0), EqLineBundle(0, 0)),
             1: (EqLineBundle(1, 0), EqLineBundle(1, 0)),
             2: (EqLineBundle(2, 0),)},
            {0: {(0, 0): d0, (1, 1): d0},
             1: {(0, 1): d0}},
        )


def test_wrong_space_block_rejected(bd2):
    bad = hom_space(bd2, 1, 0, 2).basis[0]
    with pytest.raises(BasisMismatch):
        EqComplex(
            bd2,
            {0: (EqLineBundle(0, 2),), 1: (EqLineBundle(1, 0),)},
            {0: {(0, 0): bad}},
        )


def test_hom_complex_identity(bd2):
    L = lb(bd2, 1, 2)
    data = hom_complex(L, L)
    assert data.ext_dims() == {0: 1}
    reps = cohomology_basis(L, L)
    assert reps == [identity_chain_map(L)]


def test_right_mutation_cone_shape(bd2):
    R = right_mutation(lb(bd2, 0, 2), lb(bd2, 1, 0))
    assert R.terms == {0: (EqLineBundle(0, 2),), 1: (EqLineBundle(1, 0),)}
    space = hom_space(bd2, 1, 2, 0)
    assert R.diffs[0][(0, 0)] == space.basis[0]
    assert R.label() == "{O@rho_2->O(1)@rho_0}"


def test_cone_is_exceptional(bd2):
    R = right_mutation(lb(bd2, 0, 2), lb(bd2, 1, 0))
    assert ext_dims(R, R) == {0: 1}


def test_cone_arrows_match_quiver_figure(bd2):
    R = right_mutation(lb(bd2, 0, 2), lb(bd2, 1, 0))
    assert ext_dims(R, lb(bd2, 1, 1)) == {0: 1}
    assert ext_dims(R, lb(bd2, 1, 3)) == {0: 1}
    assert ext_dims(R, lb(bd2, 1, 4)) == {0: 1}
    assert ext_dims(R, lb(bd2, 1, 2)) == {}
    assert ext_dims(R, lb(bd2, 1, 0)) == {}


def test_orthogonal_pair_transposes(bd2):
    E = lb(bd2, 0, 1)
    F = lb(bd2, 1, 3)
    assert ext_dims(E, F) == {}
    assert right_mutation(E, F) == E
    assert left_mutation(E, F) == F


def test_non_concentrated_hom_mutates(bd2):
    # RHom(E, F) is one class in degree -1, so R glues E to F[-1] and L
    # glues E[1] to F; Bondal's mutation lemma holds for both
    E = lb(bd2, 0, 0)
    F = lb(bd2, 1, 2).shift(1)
    assert ext_dims(E, F) == {-1: 1}
    R, L = right_mutation(E, F), left_mutation(E, F)
    assert ext_dims(R, F) == {} and ext_dims(E, L) == {}
    assert ext_dims(R, R) == {0: 1} and ext_dims(L, L) == {0: 1}
    chi = euler_pairing(E.kclass(), F.kclass())
    assert chi == -1
    assert R.kclass() == E.kclass() - chi * F.kclass()
    assert L.kclass() == F.kclass() - chi * E.kclass()


def test_mutation_kclass_bookkeeping(bd2, c3):
    rng = random.Random(7)
    for _ in range(20):
        setup = rng.choice([bd2, c3])
        i1 = rng.randrange(setup.n + 1)
        i2 = rng.randrange(setup.n + 1)
        j1 = rng.randrange(setup.r_plus_1)
        j2 = rng.randrange(setup.r_plus_1)
        E = lb(setup, i1, j1)
        F = lb(setup, i2, j2)
        if (i1, j1) == (i2, j2):
            continue
        chi = euler_pairing(E.kclass(), F.kclass())
        dims = pair_ext_dims(E, F)
        assert chi == sum((-1) ** k * v for k, v in dims.items())
        R = right_mutation(E, F)
        assert R.kclass() == E.kclass() - chi * F.kclass()
        L = left_mutation(E, F)
        assert L.kclass() == F.kclass() - chi * E.kclass()


def test_left_mutation_euler_sequence(p1):
    X = left_mutation(lb(p1, 0, 0), lb(p1, 1, 0))
    assert X.terms == {-1: (EqLineBundle(0, 0), EqLineBundle(0, 0)),
                       0: (EqLineBundle(1, 0),)}
    assert X.kclass() == KClass.basis(p1, 1, 0) - 2 * KClass.basis(p1, 0, 0)
    assert X.kclass() == -koszul_reduce(p1, -1, 0)


def test_mutation_round_trip(p1, bd2, c3):
    # R_E(L_E F) is F again: RHom(L_E F, E) sits in degree 1, and the right
    # mutation glues through it
    pairs = [(p1, (0, 0), (1, 0)), (bd2, (0, 2), (1, 0)), (c3, (0, 0), (1, 1))]
    for setup, (i1, j1), (i2, j2) in pairs:
        E = lb(setup, i1, j1)
        F = lb(setup, i2, j2)
        X = left_mutation(E, F)
        assert ext_dims(X, E) == {1: setup.hom_dim(i1, i2, j1, j2)}
        Z = right_mutation(X, E)
        assert Z.kclass() == F.kclass()
        for i in range(setup.n + 1):
            for j in range(setup.r_plus_1):
                L = lb(setup, i, j)
                assert pair_ext_dims(Z, L) == pair_ext_dims(F, L)
                assert pair_ext_dims(L, Z) == pair_ext_dims(L, F)


def test_chain_map_composition(c3):
    f = cohomology_basis(lb(c3, 0, 0), lb(c3, 1, 1))
    g = cohomology_basis(lb(c3, 1, 1), lb(c3, 2, 2))
    assert len(f) == 3 and len(g) == 3
    data = hom_complex(lb(c3, 0, 0), lb(c3, 2, 2))
    assert data.ext_dims() == {0: 6}
    comp = compose_chain_maps(f[0], g[1])
    coords = data.h0_coordinates(comp)
    assert coords and set(coords) <= set(range(6))
    assert all(coords.values())
    assert data.chain_map(coords, 0) == comp


def test_identity_composes_neutrally(bd2):
    E = lb(bd2, 0, 2)
    F = lb(bd2, 1, 0)
    phi = cohomology_basis(E, F)[0]
    assert compose_chain_maps(identity_chain_map(E), phi) == phi
    assert compose_chain_maps(phi, identity_chain_map(F)) == phi


def test_h0_coordinates_scaling(bd2):
    E = lb(bd2, 0, 0)
    F = lb(bd2, 1, 2)
    data = hom_complex(E, F)
    rep = cohomology_basis(E, F)[0]
    assert data.h0_coordinates(rep) == {0: 1}
    doubled = ChainMap(E, F, {0: {(0, 0): rep.blocks[0][(0, 0)] * 2}})
    coords = data.h0_coordinates(doubled)
    assert {i: str(c) for i, c in coords.items()} == {0: "2"}


def test_twist_invariance_of_ext_tables(bd2):
    R = right_mutation(lb(bd2, 0, 2), lb(bd2, 1, 0))
    Rt = R.twisted(1)
    assert Rt.terms[0] == (EqLineBundle(1, 2),)
    assert Rt.terms[1] == (EqLineBundle(2, 0),)
    assert pair_ext_dims(Rt, lb(bd2, 2, 1)) == pair_ext_dims(R, lb(bd2, 1, 1))
    assert pair_ext_dims(Rt, Rt) == pair_ext_dims(R, R)


def test_cone_self_hom_of_multi_arrow_cone(p1):
    # two parallel evaluation arrows glue a rank-2 cone on the line
    R = right_mutation(lb(p1, 0, 0), lb(p1, 1, 0))
    assert R.terms == {0: (EqLineBundle(0, 0),),
                       1: (EqLineBundle(1, 0), EqLineBundle(1, 0))}
    assert ext_dims(R, R) == {0: 1}
    assert R.kclass() == KClass.basis(p1, 0, 0) - 2 * KClass.basis(p1, 1, 0)


def test_pair_ext_dims_bypasses_window(c3):
    # single line bundles with a large twist gap still get exact answers
    A = lb(c3, 0, 0)
    B = lb(c3, 4, 2)
    with pytest.raises(WindowViolation):
        ext_dims(B, A)
    table = pair_ext_dims(B, A)
    assert table == closed_form(c3, EqLineBundle(4, 2), EqLineBundle(0, 0))


@pytest.mark.parametrize("j, j2", [(0, 1), (1, 2), (2, 0)])
def test_h0_coordinates_modulo_nonzero_boundary(c3, j, j2):
    C = lb(c3, 0, j, degree=1)
    D = right_mutation(lb(c3, 0, j), lb(c3, 1, j2))
    data = hom_complex(C, D)
    assert data.dims == {-1: 1, 0: 9}
    assert data.rank(-1) == 1
    span, _, count, *_ = data._cohomology(0)
    reps = span[count:]
    assert len(reps) == 8 == data.ext_dims()[0] == len(data.hk_maps(0))
    # reduced modulo the boundary e0 + e4 + e8
    assert reps[0] == {4: 1, 8: 1}
    for i, (rep, cm) in enumerate(zip(reps, data.hk_maps(0))):
        assert data.chain_map(rep, 0) == cm == dense_chain_map(data, rep)
        assert data.h0_coordinates(cm) == {i: 1}
    boundary = data.delta(-1)[0]
    assert boundary
    shifted = {i: 2 * reps[0].get(i, 0) + boundary.get(i, 0)
               for i in set(reps[0]) | set(boundary)}
    assert data.h0_coordinates(data.chain_map(shifted, 0)) == {0: 2}


def test_h0_coordinates_reject_non_cycle(c3):
    # Every degree-0 map into the cone above is a cycle (its Hom^1 is zero),
    # so take the cone's endomorphisms: the identity on the E summand alone
    # does not commute with the differential.
    D = right_mutation(lb(c3, 0, 0), lb(c3, 1, 1))
    data = hom_complex(D, D)
    assert data.ext_dims() == {0: 1} and data.rank(0)
    assert data.h0_coordinates(identity_chain_map(D)) == {0: 1}
    ident_e = hom_space(c3, 0, 0, 0).identity_element()
    with pytest.raises(InvalidParameter):
        ChainMap(D, D, {0: {(0, 0): ident_e}})
    with pytest.raises(BasisMismatch):
        data.h0_coordinates(ChainMap(D, D, {0: {(0, 0): ident_e}}, check=False))


def dense_chain_map(data, coords):
    """The chain map of Hom^0 coordinates {index: c} by visiting every
    basis slot of every Hom^0 slice, as `chain_map` did before it found
    the slices of the nonzero coordinates by bisection."""
    vector = [coords.get(i, CycNum.zero()) for i in range(data.dim(0))]
    blocks = {}
    for p, s, t, space, offset in data._slices(0):
        total = None
        for i, base in enumerate(space.basis):
            c = vector[offset + i]
            if c:
                part = base * c
                total = part if total is None else total + part
        if total is not None and total:
            blocks.setdefault(p, {})[(t, s)] = total
    return ChainMap(data.source, data.target, blocks)


def _window_pairs(p1, bd2, c3):
    """Every ordered pair of window line bundles of p1, bd2 and c3, and the
    bd2 cone {O@rho_2->O(1)@rho_0} paired with each bd2 line bundle both
    ways."""
    for setup in (p1, bd2, c3):
        bundles = [lb(setup, i, j) for i in range(setup.n + 1)
                   for j in range(setup.r_plus_1)]
        yield from ((C, D) for C in bundles for D in bundles)
    cone = right_mutation(lb(bd2, 0, 2), lb(bd2, 1, 0))
    assert not cone.is_line_bundle()
    for i in range(bd2.n + 1):
        for j in range(bd2.r_plus_1):
            yield cone, lb(bd2, i, j)
            yield lb(bd2, i, j), cone


def _boundary_pairs(c3):
    """The c3 pairs of test_h0_coordinates_modulo_nonzero_boundary, whose
    Hom complexes have a boundary and an 8-dimensional H^0."""
    for j, j2 in [(0, 1), (1, 2), (2, 0)]:
        yield lb(c3, 0, j, degree=1), right_mutation(lb(c3, 0, j), lb(c3, 1, j2))


def _combine(terms):
    """The sum of sparse vectors given as (scale, row) pairs, as
    {index: c} with the zeros dropped."""
    out = {}
    for scale, row in terms:
        for i, c in row.items():
            total = out.get(i, CycNum.zero()) + scale * c
            if total:
                out[i] = total
            else:
                out.pop(i, None)
    return out


def _random_cycle(rng, rows):
    """A random combination of one to three of the given sparse rows, with
    small integer coefficients."""
    picked = rng.sample(rows, rng.randint(1, min(len(rows), 3)))
    return _combine((CycNum.from_rat(rng.choice([-2, -1, 1, 3])), row)
                    for row in picked)


def test_chain_map_matches_the_dense_loop_on_window_pairs(p1, bd2, c3):
    # every H^0 row, and random cycles: combinations of the boundary rows
    # and the H^0 rows, which for two line bundles are every sparse vector;
    # each random cycle also reads back through `_sparse_vector`, which on
    # the three boundary pairs meets three Hom^0 slices
    rng = random.Random(23)
    pairs = cones = rows_checked = multi_slice = 0
    for C, D in itertools.chain(_window_pairs(p1, bd2, c3), _boundary_pairs(c3)):
        data = hom_complex(C, D)
        if not data.dim(0):
            continue
        pairs += 1
        cones += not (C.is_line_bundle() and D.is_line_bundle())
        multi_slice += len(list(data._slices(0))) > 1
        span, _, count, *_ = data._cohomology(0)
        for row, cm in zip(span[count:], data.hk_maps(0)):
            assert cm == data.chain_map(row, 0) == dense_chain_map(data, row)
            rows_checked += 1
        for _ in range(3 if span else 0):
            cycle = _random_cycle(rng, span)
            cm = data.chain_map(cycle, 0)
            assert cm == dense_chain_map(data, cycle)
            assert data._sparse_vector(cm) == cycle
    assert (pairs, cones, rows_checked, multi_slice) == (48, 9, 95, 3)


def test_row_table_is_consecutive_and_asks_each_hom_dim_once(p1, bd2, c3,
                                                             monkeypatch):
    # The first rows of each degree's table sit at exactly the (p, s, t)
    # with Setup.hom_dim nonzero, in row order, each the last one plus the
    # dimension of the built Hom space, ending at dims[k]; building the
    # table asks hom_dim once per (k, p, s, t).  The self Hom complexes of
    # the boundary pairs' cones have Hom^0 slices in two degrees.
    pairs = itertools.chain(_window_pairs(p1, bd2, c3), _boundary_pairs(c3),
                            ((D, D) for _, D in _boundary_pairs(c3)))
    slices = 0
    for C, D in pairs:
        setup = C.setup
        asked = []
        true_dim = setup.hom_dim
        monkeypatch.setattr(setup, "hom_dim",
                            lambda *args: asked.append(args) or true_dim(*args))
        data = hom_complex(C, D)
        monkeypatch.undo()
        degrees = range(D.degrees[0] - C.degrees[-1],
                        D.degrees[-1] - C.degrees[0] + 1)
        assert len(asked) == sum(len(C.terms[p]) * len(D.terms.get(p + k, ()))
                                 for k in degrees for p in C.terms)
        for k in degrees:
            nonzero = [(p, s, t) for p in C.degrees
                       for s, a in enumerate(C.terms[p])
                       for t, b in enumerate(D.terms.get(p + k, ()))
                       if setup.hom_dim(a.twist, b.twist, a.irrep, b.irrep)]
            table = data._rows.get(k, {})
            assert list(table) == nonzero
            row = 0
            for p, s, t, space, offset in data._slices(k):
                assert table[(p, s, t)] == offset == row
                row += len(space.basis)
                slices += 1
            assert row == data.dim(k)
    assert slices == 99


def test_sparse_vector_reads_back_cycles_across_degrees(c3):
    # the self Hom complex of each boundary pair's cone O -> O(1)^3 has
    # Hom^0 slices at p = 0 (one) and p = 1 (nine); random cycles built
    # from its boundaries and H^0 read back to themselves
    rng = random.Random(25)
    for _, D in _boundary_pairs(c3):
        data = hom_complex(D, D)
        assert [p for p, *_ in data._slices(0)] == [0] + [1] * 9
        span = data._cohomology(0)[0]
        for _ in range(5):
            cycle = _random_cycle(rng, span)
            assert data._sparse_vector(data.chain_map(cycle, 0)) == cycle


def test_sparse_vector_rejects_a_block_from_another_hom_space(c3):
    # Hom(O rho_0, O(1) rho_1) has a slice in Hom^0, but the block's
    # element lives in Hom(O rho_1, O(1) rho_2), which has the same
    # dimension
    C, D = lb(c3, 0, 0), lb(c3, 1, 1)
    data = hom_complex(C, D)
    assert data.dims == {0: 3}
    stray = hom_space(c3, 1, 1, 2).basis[0]
    assert len(stray.space.basis) == 3
    cm = ChainMap(C, D, {0: {(0, 0): stray}}, check=False)
    with pytest.raises(BasisMismatch, match="different space"):
        data.h0_coordinates(cm)


def test_h0_coordinates_invert_chain_map_modulo_boundaries(p1, bd2, c3):
    # c over the H^0 rows plus a random boundary reads back as c
    rng = random.Random(7)
    checked = boundaries = 0
    for C, D in itertools.chain(_window_pairs(p1, bd2, c3), _boundary_pairs(c3)):
        data = hom_complex(C, D)
        span, _, count, *_ = data._cohomology(0)
        h0_rows = span[count:]
        if not h0_rows:
            continue
        for _ in range(3):
            coords = _random_cycle(rng, [{i: CycNum.one()}
                                         for i in range(len(h0_rows))])
            terms = [(c, h0_rows[i]) for i, c in coords.items()]
            if count:
                terms.append((CycNum.one(), _random_cycle(rng, span[:count])))
                boundaries += 1
            cycle = _combine(terms)
            assert data.h0_coordinates(data.chain_map(cycle, 0)) == coords
            checked += 1
    assert (checked, boundaries) == (3 * 46, 3 * 3)


def test_chain_map_rejects_a_coordinate_outside_hom0(bd2):
    data = hom_complex(lb(bd2, 0, 0), lb(bd2, 1, 2))
    assert data.dim(0) == 1
    one = CycNum.one()
    assert data.chain_map({0: one}, 0) == data.hk_maps(0)[0]
    for index in (-1, 1, 5):
        with pytest.raises(InvalidParameter, match="outside Hom\\^0"):
            data.chain_map({index: one}, 0)
    empty = hom_complex(lb(bd2, 0, 0), lb(bd2, 0, 1))
    assert empty.dim(0) == 0
    with pytest.raises(InvalidParameter):
        empty.chain_map({0: one}, 0)
    # the same pair with F one degree up: Hom^1 is the Hom^0 above, and its
    # coordinates read a map into F[1], the degree-1 record's one target,
    # equal to the H^0 map of (E, F[1])
    C, D = lb(bd2, 0, 0), lb(bd2, 1, 2, degree=1)
    data = hom_complex(C, D)
    assert data.dims == {1: 1}
    phi = data.chain_map({0: one}, 1)
    assert phi == data.hk_maps(1)[0] == hom_complex(C, D.shift(1)).hk_maps(0)[0]
    assert phi.target == D.shift(1) and phi.target is data.hk_maps(1)[0].target
    for index in (-1, 1, 5):
        with pytest.raises(InvalidParameter, match="outside Hom\\^1"):
            data.chain_map({index: one}, 1)
    with pytest.raises(InvalidParameter, match="outside Hom\\^0"):
        data.chain_map({0: one}, 0)


def test_chain_map_block_in_zero_space_rejected(c3):
    # Hom(O rho_0, O rho_1) is zero, so Hom^0 has no slice for the block;
    # a nonzero (non-invariant) element there must not be dropped silently.
    C, D = lb(c3, 0, 0), lb(c3, 0, 1)
    data = hom_complex(C, D)
    assert data.dim(0) == 0
    space = hom_space(c3, 0, 0, 1)
    stray = _element(space, [CycNum.one()] + [CycNum.zero()] * (space.ambient_dim - 1))
    cm = ChainMap(C, D, {0: {(0, 0): stray}}, check=False)
    with pytest.raises(BasisMismatch, match="zero morphism space"):
        data.h0_coordinates(cm)


def test_hom_complex_cap_stops_before_any_differential(c3, monkeypatch):
    # Hom(O, O(2) tensor rho_2) for Z/3 on P^2 has dimension 6 in degree
    # 0; the cap is lowered through the environment, read on first use
    E, F = lb(c3, 0, 0), lb(c3, 2, 2)
    assert hom_complex(E, F).dims == {0: 6}
    monkeypatch.setenv("EQCOL_HOM_COMPLEX_CAP", "5")
    hom_complex_cap.cache_clear()
    try:
        with pytest.raises(HomComplexCapExceeded,
                           match=r"O@rho_0 -> O\(2\)@rho_2 has dimension 6"
                                 r" in degree 0, above the cap"):
            hom_complex(E, F)
        monkeypatch.setenv("EQCOL_HOM_COMPLEX_CAP", "6")
        hom_complex_cap.cache_clear()
        assert hom_complex(E, F).dims == {0: 6}
    finally:
        monkeypatch.delenv("EQCOL_HOM_COMPLEX_CAP")
        hom_complex_cap.cache_clear()


# -- Ext dimensions of cones and random complexes -----------------------------


def _sweep_pair(setup, draw, bundles):
    """Two distinct line bundles E, F of bundles with Hom(E, F) nonzero, as
    complexes in degree 0, or None when the E drawn maps to no other."""
    a = draw(st.sampled_from(bundles))
    targets = [b for b in bundles if b != a
               and setup.hom_dim(a.twist, b.twist, a.irrep, b.irrep)]
    if not targets:
        return None
    return (from_line_bundle(setup, a),
            from_line_bundle(setup, draw(st.sampled_from(targets))))


def _sweep_object(setup, draw, cone):
    """A mutation cone of two line bundles with a nonzero Hom between them
    when `cone`, else a line bundle or a sum of line bundles in one degree;
    twists lie in [0, n], so every pair of these is inside the window."""
    bundles = [EqLineBundle(i, j) for i in range(setup.n + 1)
               for j in range(setup.r_plus_1)]
    if cone:
        pair = _sweep_pair(setup, draw, bundles)
        if pair:
            return right_mutation(*pair) if draw(st.booleans()) else left_mutation(*pair)
    degree = draw(st.integers(-1, 1))
    summands = draw(st.lists(st.sampled_from(bundles), min_size=1, max_size=3))
    return EqComplex(setup, {degree: summands})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=repring_specs, data=st.data())
def test_hom_complex_ext_dims_match_euler_pairing(spec, data):
    # an oracle that shares no rank code: every Ext dimension is positive,
    # and their alternating sum is the Euler pairing of the K-classes
    setup = build_repring_setup(spec)
    C = _sweep_object(setup, data.draw, cone=True)
    D = _sweep_object(setup, data.draw, cone=data.draw(st.booleans()))
    if data.draw(st.booleans()):
        C, D = D, C
    table = hom_complex(C, D).ext_dims()
    assert all(dim > 0 for dim in table.values())
    assert (sum((-1) ** k * dim for k, dim in table.items())
            == euler_pairing(C.kclass(), D.kclass()))


def _cone(setup, scale):
    """O -> O(1) tensor rho_1 on Z/3 acting on P^2, its differential
    `scale` times the first basis vector of the degree-1 Hom space."""
    phi = hom_space(setup, 1, 0, 1).basis[0]
    return EqComplex(setup, {0: (EqLineBundle(0, 0),), 1: (EqLineBundle(1, 1),)},
                     {0: {(0, 0): phi * scale}})


@pytest.mark.parametrize("scale", [1, 536870923, CycNum.zeta(5)],
                         ids=["one", "large_prime", "zeta5"])
def test_cone_ext_dims_for_any_scale(c3, scale):
    # Hom^-1 = Hom(O(1) rho_1, O(1) rho_1) and Hom^0 = Hom(O, O(1) rho_1),
    # of dimensions 1 and 3; delta^-1 has rank 1 whether its scale is 1, a
    # prime above 2^29 or zeta_5, a value outside the Q(zeta_3) of Z/3
    data = hom_complex(_cone(c3, scale), lb(c3, 1, 1))
    assert data.dims == {-1: 1, 0: 3}
    assert data.ext_dims() == {0: 2}


def test_one_hom_complex_per_mutation_pair(bd2, monkeypatch):
    builds = []
    init = HomComplexData.__init__

    def counting(self, C, D):
        builds.append((C, D))
        init(self, C, D)

    monkeypatch.setattr(HomComplexData, "__init__", counting)
    E, F, G = lb(bd2, 0, 2), lb(bd2, 1, 0), lb(bd2, 1, 1)
    # line bundles: Ext from the closed form, H^0 from one complex
    R = right_mutation(E, F)
    assert builds == [(E, F)]
    # a cone: Ext and H^0 from the same complex
    builds.clear()
    assert right_mutation(R, G) != R
    assert builds == [(R, G)]
    # an orthogonal pair of line bundles builds none
    builds.clear()
    assert right_mutation(lb(bd2, 0, 1), lb(bd2, 1, 3)) == lb(bd2, 0, 1)
    assert builds == []


# -- both mutations as mapping cones ----------------------------------------


def _hom_pairs(setup):
    """Every ordered pair (E, F) of distinct window line bundles with
    Hom(E, F) nonzero; each is exceptional, since Ext(F, E) = 0 when F has
    the higher twist and the gap is at most n."""
    bundles = [EqLineBundle(i, j) for i in range(setup.n + 1)
               for j in range(setup.r_plus_1)]
    return [(from_line_bundle(setup, a), from_line_bundle(setup, b))
            for a in bundles for b in bundles
            if a != b and setup.hom_dim(a.twist, b.twist, a.irrep, b.irrep)]


@pytest.mark.parametrize("name", ["p1", "bd2", "c3"])
def test_mutation_lemma_on_the_hom_complex(name, request):
    # Bondal's mutation lemma, read off the Hom complex of each cone:
    # R = Cone(E -> F tensor Hom(E, F)^*)[-1] is left orthogonal to F and
    # L = Cone(E tensor Hom(E, F) -> F) is right orthogonal to E, and both
    # are exceptional
    pairs = _hom_pairs(request.getfixturevalue(name))
    assert pairs
    for E, F in pairs:
        R = right_mutation(E, F)
        assert R.triangle == (E, F)
        assert ext_dims(R, F) == {}
        assert ext_dims(R, R) == {0: 1}
        L = left_mutation(E, F)
        assert ext_dims(E, L) == {}
        assert ext_dims(L, L) == {0: 1}


def test_cone_of_the_identity_is_acyclic(bd2):
    # Cone(id_C) is contractible, so it has no Ext with anything
    window = [lb(bd2, i, j) for i in range(bd2.n + 1)
              for j in range(bd2.r_plus_1)]
    for E, F in _hom_pairs(bd2):
        C = right_mutation(E, F)
        Z = _glue(_negated_copies([C]), C, identity_chain_map(C).blocks, 1)
        assert Z.degrees == [-1, 0, 1]
        for L in window:
            assert ext_dims(Z, L) == {}
            assert ext_dims(L, Z) == {}


# -- one gluing for both mutations --------------------------------------------


def _copy_offsets(ends):
    """For each complex of ends, the index of its first summand in each of
    its degrees of their direct sum, copy-major."""
    offsets, sizes = [], {}
    for C in ends:
        offsets.append({d: sizes.get(d, 0) for d in C.terms})
        for d, summands in C.terms.items():
            sizes[d] = sizes.get(d, 0) + len(summands)
    return offsets


def _oracle_sum(ends):
    """The direct sum of the complexes ends, copy-major, each copy holding
    its own blocks: the copies the mutations glued before
    `_negated_copies`."""
    terms, diffs = {}, {}
    for C, offsets in zip(ends, _copy_offsets(ends)):
        for d, summands in C.terms.items():
            terms[d] = terms.get(d, ()) + summands
        for d, blocks in C.diffs.items():
            diffs.setdefault(d, {}).update(
                ((offsets[d + 1] + t, offsets[d] + s), elem)
                for (t, s), elem in blocks.items())
    return EqComplex(ends[0].setup, terms, diffs, check=False)


def _oracle_stack(maps, left):
    """The maps stacked over the direct sum of their sources (left) or
    targets, each scaled by -1 when it maps into the sum."""
    ends = [phi.source if left else phi.target for phi in maps]
    ev = {}
    for phi, offsets in zip(maps, _copy_offsets(ends)):
        for d, entry in phi.blocks.items():
            ev.setdefault(d, {}).update(
                ((t, offsets[d] + s) if left else (offsets[d] + t, s),
                 elem if left else -elem)
                for (t, s), elem in entry.items())
    return _oracle_sum(ends), ev


def _oracle_cone(X, Y, blocks):
    """Cone(f: X -> Y)^d = X^(d+1) + Y^d, X's summands first, with
    differential (x, y) -> (-d_X x, f x + d_Y y): the mapping cone the
    mutations were built from before `_glue`."""
    offset = {}
    terms = {}
    for d in sorted({p - 1 for p in X.terms} | set(Y.terms)):
        x_part = X.terms.get(d + 1, ())
        offset[d] = len(x_part)
        terms[d] = x_part + Y.terms.get(d, ())
    diffs = {}
    for d, entry in X.diffs.items():
        diffs.setdefault(d - 1, {}).update(
            ((t, s), -elem) for (t, s), elem in entry.items())
    for d, entry in Y.diffs.items():
        diffs.setdefault(d, {}).update(
            ((offset[d + 1] + t, offset[d] + s), elem)
            for (t, s), elem in entry.items())
    for d, entry in blocks.items():
        diffs.setdefault(d - 1, {}).update(
            ((offset[d] + t, s), elem) for (t, s), elem in entry.items())
    return EqComplex(X.setup, terms, diffs)


def _oracle_maps(E, F, left):
    """For each k with Ext^k(E, F) != 0, in ascending k, the H^0 basis of
    a Hom complex of its own, of (E, F[k]), or with left of (E[-k], F)."""
    maps = []
    for k in sorted(pair_ext_dims(E, F)):
        data = hom_complex(E.shift(-k), F) if left else hom_complex(E, F.shift(k))
        maps += data.hk_maps(0)
    return maps


def oracle_right_mutation(E, F):
    """R as the cone of minus the evaluation maps, stacked over the copies
    of each F[k], shifted by [-1]."""
    maps = _oracle_maps(E, F, False)
    if not maps:
        return E
    cone = _oracle_cone(E, *_oracle_stack(maps, False)).shift(-1)
    cone.triangle = (E, F)
    return cone


def oracle_left_mutation(E, F):
    """L as the cone of the evaluation maps out of the copies of each
    E[-k]."""
    maps = _oracle_maps(E, F, True)
    if not maps:
        return F
    copies, ev = _oracle_stack(maps, True)
    return _oracle_cone(copies, F, ev)


def _same_complex(A, B):
    assert A.terms == B.terms
    assert list(A.terms) == list(B.terms)
    assert A.diffs == B.diffs
    assert (A.triangle is None) == (B.triangle is None)
    if A.triangle is not None:
        assert all(x is y for x, y in zip(A.triangle, B.triangle))


def _check_shared_blocks(E, F, R, L):
    """R holds E's own blocks and L F's own; each block of F[k] in R, and
    of E[-k] in L, is one negated object that the copies of F[k], or of
    E[-k], share."""
    def size(C, d):
        return len(C.terms.get(d, ()))

    rights = [phi.target for phi in complexes._evaluation_maps(E, F)]
    lefts = [phi.source for phi in complexes._evaluation_maps(E, F, left=True)]
    for p, blocks in E.diffs.items():
        for key, e in blocks.items():
            assert R.diffs[p][key] is e
    for q, blocks in F.diffs.items():
        for (t, s), g in blocks.items():
            assert L.diffs[q][(sum(size(C, q + 2) for C in lefts) + t,
                               sum(size(C, q + 1) for C in lefts) + s)] is g
    shared = {}
    for C, offsets in zip(rights, _copy_offsets(rights)):
        for d, blocks in C.diffs.items():
            for (t, s), g in blocks.items():
                x = R.diffs[d + 1][(size(E, d + 2) + offsets[d + 1] + t,
                                    size(E, d + 1) + offsets[d] + s)]
                assert x == -g and shared.setdefault((id(C), d, t, s), x) is x
    for C, offsets in zip(lefts, _copy_offsets(lefts)):
        for d, blocks in C.diffs.items():
            for (t, s), e in blocks.items():
                x = L.diffs[d - 1][(offsets[d + 1] + t, offsets[d] + s)]
                assert x == -e and shared.setdefault((id(C), d, t, s), x) is x


def _mutations_match_the_oracle(E, F):
    """Both mutations of (E, F) equal the cone-then-shift construction in
    terms, summand order, diffs and triangle, and share their blocks as
    `_check_shared_blocks` states; returns the sum of the dimensions of
    the Ext^k(E, F)."""
    R, L = right_mutation(E, F), left_mutation(E, F)
    _same_complex(R, oracle_right_mutation(E, F))
    _same_complex(L, oracle_left_mutation(E, F))
    if R is E:
        assert L is F
        return 0
    _check_shared_blocks(E, F, R, L)
    return len(complexes._evaluation_maps(E, F))


def test_mutations_match_the_oracle_on_pipelines(monkeypatch):
    # every right mutation of the 7 shipped scenarios' cascades and runs, of
    # the nine-task pipeline of Z/8 acting on C^4 with weights 1, 3, 5, 7
    # and of the cascade and dsing of Z/4 with weights 1, 1, 3, 3, whose
    # pairs meet RHom in two degrees, and the left mutation of the same
    # pair, against the oracle; the right mutation itself negates no block
    # when F is a line bundle, and each right and left mutation builds at
    # most one Hom complex, whatever degrees its RHom meets
    negations = [0]
    true_neg = HomElement.__neg__

    def counting_neg(self):
        negations[0] += 1
        return true_neg(self)

    builds = [0]
    init = HomComplexData.__init__

    def counting_init(self, C, D):
        builds[0] += 1
        init(self, C, D)

    per_call = Counter()

    def counted(mutation):
        def wrapper(E, F):
            before = builds[0]
            out = mutation(E, F)
            per_call[mutation.__name__, builds[0] - before] += 1
            return out
        return wrapper

    true_right = counted(complexes.right_mutation)
    seen = {}

    def checked(E, F):
        before = negations[0]
        R = true_right(E, F)
        if F.is_line_bundle():
            assert negations[0] == before
        h = _mutations_match_the_oracle(E, F)
        counts = seen.setdefault(name, [0, 0, 0, 0])
        counts[0] += 1
        counts[1] += h > 0
        counts[2] += bool(h > 1 and E.diffs)
        counts[3] += len(pair_ext_dims(E, F)) > 1
        return R

    monkeypatch.setattr(HomElement, "__neg__", counting_neg)
    monkeypatch.setattr(HomComplexData, "__init__", counting_init)
    monkeypatch.setattr(excol, "right_mutation", checked)
    for mutation in (right_mutation, left_mutation):
        monkeypatch.setitem(globals(), mutation.__name__, counted(mutation))
    scenarios = [(path.stem, load_scenario(path))
                 for path in sorted(SCENARIOS.glob("*.json"))]
    for name, scenario in scenarios:
        cascade_mutation(beilinson_collection(build_setup(scenario)))
        assert run_scenario(scenario)["passed"] is True
    name = "z8w1357"
    assert run_scenario(_pipeline(name, {"kind": "cyclic_diagonal", "m": 8,
                                         "weights": [1, 3, 5, 7]}, 4))["passed"]
    name = "z4w1133"
    setup = cyclic_diagonal(4, [1, 1, 3, 3])
    cascade_mutation(beilinson_collection(setup))
    excol.dsing_collection(setup, 1, "invariant_veronese")
    # {name: [pairs, pairs with Ext nonzero, of those with h > 1 and E a
    # complex with a differential, pairs with Ext in two or more degrees]}
    assert seen == {"q8_crossed_veronese_d2": [4, 1, 0, 0], "q8_d1": [12, 3, 0, 0],
                    "q8_explicit": [4, 1, 0, 0], "q8_veronese_d2": [4, 1, 0, 0],
                    "z3_crossed_d3": [6, 3, 0, 0], "z3_d1": [19, 6, 0, 0],
                    "z3_veronese_d3": [6, 3, 0, 0], "z8w1357": [84, 44, 8, 0],
                    "z4w1133": [36, 20, 4, 4]}
    # {(mutation, Hom complexes it built): calls}; each of the 175 pairs
    # meets the right mutation twice, in the pipeline and in the comparison
    # with the oracle, and the 57 orthogonal pairs of line bundles build none
    assert per_call == {("right_mutation", 0): 114, ("right_mutation", 1): 236,
                        ("left_mutation", 0): 57, ("left_mutation", 1): 118}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=repring_specs, data=st.data())
def test_mutations_match_the_oracle_on_the_sweep(spec, data):
    # the sweep's objects: a mutation cone against a cone or a sum of line
    # bundles, either way round, and the sweep's pair of line bundles
    setup = build_repring_setup(spec)
    bundles = [EqLineBundle(i, j) for i in range(setup.n + 1)
               for j in range(setup.r_plus_1)]
    pair = _sweep_pair(setup, data.draw, bundles)
    if pair:
        assert _mutations_match_the_oracle(*pair) > 0
    C = _sweep_object(setup, data.draw, cone=True)
    D = _sweep_object(setup, data.draw, cone=data.draw(st.booleans()))
    if data.draw(st.booleans()):
        C, D = D, C
    _mutations_match_the_oracle(C, D)


def test_mutations_share_blocks_and_negate_each_once(p2, monkeypatch):
    # on P^2: F = {O^6 -> O(2)} has 6 blocks and Hom(O(1), F) dimension 3,
    # and X = {O -> O(2)^6} has 6 blocks and Hom(X, O(1)) dimension 3; each
    # mutation negates the 6 blocks once, whatever h, and the line-bundle
    # mutations negate none
    negations = []
    true_neg = HomElement.__neg__

    def counting_neg(self):
        negations.append(self)
        return true_neg(self)

    O, O1, O2 = lb(p2, 0, 0), lb(p2, 1, 0), lb(p2, 2, 0)
    F = left_mutation(O, O2)
    X = right_mutation(O, O2)
    monkeypatch.setattr(HomElement, "__neg__", counting_neg)
    R = right_mutation(O1, F)
    assert R.label() == "{O(1)@rho_0+O@rho_0^18->O(2)@rho_0^3}"
    assert len(negations) == 6
    negations.clear()
    L = left_mutation(X, O1)
    assert L.label() == "{O@rho_0^3->O(2)@rho_0^18+O(1)@rho_0}"
    assert len(negations) == 6
    negations.clear()
    assert right_mutation(O, O1) != O and left_mutation(O, O1) != O1
    assert negations == []
    monkeypatch.undo()
    _check_shared_blocks(O1, F, R, left_mutation(O1, F))
    _check_shared_blocks(X, O1, right_mutation(X, O1), L)
    assert _mutations_match_the_oracle(O1, F) == 3
    assert _mutations_match_the_oracle(X, O1) == 3


# -- one block check and one block product ------------------------------------


def _bad_block(c3, other, case):
    """(the block key, the element, the error) of one malformed block of a
    map from O rho_0 to O(1) rho_1 on Z/3 acting on P^2."""
    good = hom_space(c3, 1, 0, 1).basis[0]
    return {
        "index_minus_one": ((0, -1), good, InvalidParameter),
        "index_five": ((0, 5), good, InvalidParameter),
        "target_five": ((5, 0), good, InvalidParameter),
        "other_setup": ((0, 0), hom_space(other, 1, 0, 1).basis[0], BasisMismatch),
        "wrong_space": ((0, 0), hom_space(c3, 1, 1, 2).basis[0], BasisMismatch),
    }[case]


@pytest.mark.parametrize("case", ["index_minus_one", "index_five", "target_five",
                                  "other_setup", "wrong_space"])
@pytest.mark.parametrize("kind", ["differential", "chain_map"])
def test_one_block_check_refuses_a_bad_block_in_both(c3, kind, case):
    # the same check serves a differential and a chain map: an index outside
    # the summands is an InvalidParameter, a block from another Hom space,
    # also one of another Setup's with the same twist and irreps, a
    # BasisMismatch
    other = cyclic_diagonal(3, [1, 1, 1])
    assert other is not c3
    key, elem, error = _bad_block(c3, other, case)
    a, b = EqLineBundle(0, 0), EqLineBundle(1, 1)
    with pytest.raises(error, match="block"):
        if kind == "differential":
            EqComplex(c3, {0: (a,), 1: (b,)}, {0: {key: elem}})
        else:
            ChainMap(lb(c3, 0, 0), lb(c3, 1, 1), {0: {key: elem}})


def test_chain_map_refuses_complexes_over_different_setups(c3):
    other = cyclic_diagonal(3, [1, 1, 1])
    f = hom_space(c3, 1, 0, 1).basis[0]
    with pytest.raises(BasisMismatch, match="different setups"):
        ChainMap(lb(c3, 0, 0), lb(other, 1, 1), {0: {(0, 0): f}})
    assert ChainMap(lb(c3, 0, 0), lb(c3, 1, 1), {0: {(0, 0): f}}).blocks == \
        {0: {(0, 0): f}}


def dense_block_product(first, second):
    """second o first by the s x u x t loop that composed block maps
    before `_block_product`: every (s, u) sums g o f over every middle t,
    each index up to the largest that occurs, and keeps a nonzero sum.
    Also returns the number of (s, u, t) triples it visits."""
    if not first or not second:
        return {}, 0
    sources = 1 + max(s for _, s in first)
    middle = 1 + max(t for t, _ in itertools.chain(first, second))
    targets = 1 + max(u for u, _ in second)
    out = {}
    for s in range(sources):
        for u in range(targets):
            total = None
            for t in range(middle):
                f, g = first.get((t, s)), second.get((u, t))
                if f is not None and g is not None:
                    comp = compose_hom(f, g)
                    total = comp if total is None else total + comp
            if total:
                out[(u, s)] = total
    return out, sources * targets * middle


PIPELINE_TASKS = ["beilinson", "cascade", "blocks", "dsing", "check", "gram",
                  "quiver"]


def _pipeline(name, group, n_plus_1):
    return parse_scenario({"name": name, "group": group, "n_plus_1": n_plus_1,
                           "mode": "invariant_veronese", "veronese_d": 1,
                           "tasks": PIPELINE_TASKS})


def test_block_product_matches_the_dense_loop_on_shipped_scenarios(monkeypatch):
    # every block product formed by the shipped scenarios and by the
    # pipelines of Z/4 on P^3 and of Z/8 acting on C^4 with weights
    # 1, 3, 5, 7, in the d o d check of their cones, the chain-map checks
    # of their H^0 representatives and the quiver's composites, equals the
    # dense loop.  The product composes only the pairs of blocks that meet:
    # on Z/8 those are 488 of the 1,072 triples the dense loop visits.  The
    # other shipped scenarios form no product.
    met = {}
    true_product = complexes._block_product

    def checked(first, second):
        product = true_product(first, second)
        expected, triples = dense_block_product(first, second)
        assert product == expected
        counts = met.setdefault(name, [0, 0])
        counts[0] += sum(1 for t, _ in first for _, t2 in second if t == t2)
        counts[1] += triples
        return product

    monkeypatch.setattr(complexes, "_block_product", checked)
    scenarios = [(path.stem, path) for path in sorted(SCENARIOS.glob("*.json"))]
    scenarios += [
        ("z4p3", _pipeline("z4p3", {"kind": "cyclic_diagonal", "m": 4,
                                    "weights": [1, 1, 1, 1]}, 4)),
        ("z8w1357", _pipeline("z8w1357", {"kind": "cyclic_diagonal", "m": 8,
                                          "weights": [1, 3, 5, 7]}, 4)),
    ]
    for name, scenario in scenarios:
        assert run_scenario(scenario)["passed"] is True
    # {name: [pairs of blocks that meet, dense triples]}, over the
    # scenarios that form a product at all
    assert met == {"q8_d1": [0, 0], "z3_d1": [0, 0], "z4p3": [64, 64],
                   "z8w1357": [488, 1072]}


def _random_block_map(rng, setup, sources, targets):
    """A random block map from the summands sources to targets: each block
    a small integer combination of its Hom space's basis, about half the
    blocks absent."""
    blocks = {}
    for s, a in enumerate(sources):
        for t, b in enumerate(targets):
            if b.twist < a.twist or rng.random() < 0.5:
                continue
            basis = hom_space(setup, b.twist - a.twist, a.irrep, b.irrep).basis
            terms = [v * rng.choice([-2, -1, 1, 3]) for v in basis
                     if rng.random() < 0.6]
            if terms:
                total = terms[0]
                for v in terms[1:]:
                    total = total + v
                if total:
                    blocks[(t, s)] = total
    return blocks


def test_block_product_matches_the_dense_loop_on_random_block_maps(c3):
    rng = random.Random(26)

    def bundles(twists):
        return [EqLineBundle(rng.choice(twists), rng.randrange(3))
                for _ in range(rng.randint(1, 4))]

    visited = dense = 0
    for _ in range(60):
        A, B, C = bundles([0]), bundles([0, 1]), bundles([1, 2])
        first = _random_block_map(rng, c3, A, B)
        second = _random_block_map(rng, c3, B, C)
        product = _block_product(first, second)
        expected, triples = dense_block_product(first, second)
        assert product == expected
        assert all(product[(u, s)].space is hom_space(
            c3, C[u].twist - A[s].twist, A[s].irrep, C[u].irrep)
            for u, s in product)
        visited += sum(1 for t, _ in first for _, t2 in second if t == t2)
        dense += triples
    assert 0 < visited < dense
    # two paths through copies of one middle summand that cancel leave no
    # block at all
    f = hom_space(c3, 1, 0, 1).basis[0]
    g = hom_space(c3, 1, 1, 2).basis[1]
    assert _block_product({(0, 0): f, (1, 0): -f}, {(0, 0): g, (0, 1): g}) == {}
    assert dense_block_product({(0, 0): f, (1, 0): -f},
                               {(0, 0): g, (0, 1): g}) == ({}, 2)
