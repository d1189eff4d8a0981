"""Characters, power characters, Molien dimensions: oracle cross-checks.

The oracles here are independent implementations: symmetric power traces
come from explicit substitution on the monomial basis, exterior power
traces from principal minors, and invariant dimensions from averaging
those traces over the group.
"""

import inspect
import sys
import time
from fractions import Fraction

import pytest

import eqcol.reps as reps_mod
from eqcol.cyclotomic import CycNum
from eqcol.errors import GroupMismatch, NegativeDegree
from eqcol.linalg import CycMatrix, RightMultiplier, unflatten
from eqcol.reps import (
    CharacterVec,
    binary_dihedral,
    cyclic_diagonal,
    ext_power_character,
    irrep_from_images,
    molien_dimension,
    sym_power_character,
    verify_irreps,
)
from eqcol.scenario import build_setup, load_scenario
from test_repring import SCENARIOS


# -- oracles -----------------------------------------------------------

def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    out = []
    for v in range(degree, -1, -1):
        out.extend((v,) + rest for rest in _monomials(nvars - 1, degree - v))
    return out


def _pmul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, CycNum.zero()) + ca * cb
    return out


def oracle_sym_trace(g: CycMatrix, m: int) -> CycNum:
    """Trace of Sym^m(g) by expanding the action on the monomial basis."""
    k = g.nrows
    zero = tuple([0] * k)
    total = CycNum.zero()
    for alpha in _monomials(k, m):
        poly = {zero: CycNum.one()}
        for i, e in enumerate(alpha):
            form = {}
            for j in range(k):
                if g.rows[j][i]:
                    form[tuple(1 if t == j else 0 for t in range(k))] = g.rows[j][i]
            for _ in range(e):
                poly = _pmul(poly, form)
        total = total + poly.get(alpha, CycNum.zero())
    return total


def oracle_ext_trace(g: CycMatrix, k: int) -> CycNum:
    """Trace of the k-th exterior power: sum of principal k x k minors."""
    from itertools import combinations
    n = g.nrows
    if k > n:
        return CycNum.zero()
    total = CycNum.zero()
    for rows in combinations(range(n), k):
        minor = CycMatrix([[g.rows[i][j] for j in rows] for i in rows]) \
            if k else None
        total = total + (minor.det() if k else CycNum.one())
    return total


def oracle_invariant_dim(group, m: int) -> Fraction:
    """(1/|G|) sum over g of trace Sym^m(g^-1): polynomial invariants."""
    total = CycNum.zero()
    for i in range(group.order):
        total = total + oracle_sym_trace(group.elements[group.inv(i)], m)
    return (total * Fraction(1, group.order)).as_rat()


# -- tests -------------------------------------------------------------

@pytest.fixture(scope="module")
def bd2():
    return binary_dihedral(2)


@pytest.fixture(scope="module")
def c3():
    return cyclic_diagonal(3, [1, 1, 1])


def test_inner_products(bd2):
    triv = bd2.trivial
    assert triv.inner(triv) == 1
    chi2 = bd2.irreps[2].character()
    assert chi2.inner(chi2) == 1
    # regular character: |G| at the identity class, zero elsewhere
    reg_values = [CycNum.from_rat(8 if c == 0 else 0)
                  for c in range(len(bd2.group.classes))]
    reg = CharacterVec(bd2.group, reg_values)
    for rep in bd2.irreps:
        assert reg.inner(rep.character()) == rep.dim


def test_group_mismatch(bd2, c3):
    with pytest.raises(GroupMismatch):
        bd2.trivial.inner(c3.trivial)


def test_verify_irreps_pass_and_fail(bd2):
    assert verify_irreps(bd2.group, list(bd2.irreps)).passed
    duplicated = [bd2.irreps[0], bd2.irreps[0]]
    report = verify_irreps(bd2.group, duplicated)
    assert not report.passed
    # trivial group with the trivial irrep passes
    t = cyclic_diagonal(1, [1])
    assert verify_irreps(t.group, list(t.irreps)).passed


# -- orthonormality from residues against CharacterVec.inner ---------------

def oracle_orthonormality_failure(group, irreps):
    """The orthonormality and dimension checks through exact CycNum inner
    products, for tables that are multiplicative and class-constant."""
    for a in range(len(irreps)):
        for b in range(a, len(irreps)):
            expect = Fraction(1 if a == b else 0)
            got = irreps[a].character().inner(irreps[b].character())
            if got != expect:
                return (f"<{irreps[a].name}, {irreps[b].name}> = {got},"
                        f" expected {expect}")
    dim_sq = sum(r.dim ** 2 for r in irreps)
    if dim_sq != group.order:
        return f"dimension squares sum to {dim_sq}, group order is {group.order}"
    return None


def direct_sum(setup, name, summands):
    """The direct sum of irreps, built from block-diagonal generator images."""
    group = setup.group
    images = []
    for g in group.generators:
        s = group.index_of(g)
        blocks = [setup.irreps[j].matrix(s) for j in summands]
        size = sum(b.nrows for b in blocks)
        rows = [[CycNum.zero()] * size for _ in range(size)]
        offset = 0
        for b in blocks:
            for i in range(b.nrows):
                rows[offset + i][offset:offset + b.nrows] = b.rows[i]
            offset += b.nrows
        images.append(CycMatrix(rows))
    return irrep_from_images(group, len(summands), name, images)


@pytest.mark.parametrize("case", [
    "bd2 duplicated", "bd2 rho_1+rho_3", "bd2 rho_0+rho_1", "c3 rho_1+rho_2",
    "c3 rho_0+rho_1", "bd2 without rho_4", "bd3 without rho_2", "bd2", "c3"])
def test_orthonormality_residues_match_inner_products(case, bd2, c3):
    setup = {"bd2": bd2, "c3": c3, "bd3": binary_dihedral(3)}[case.split()[0]]
    irreps = list(setup.irreps)
    if case == "bd2 duplicated":
        irreps = [irreps[0], irreps[0]]
    elif "+" in case:
        i, j = (int(t[-1]) for t in case.split()[1].split("+"))
        irreps = [irreps[0], direct_sum(setup, case.split()[1], [i, j])]
    elif "without" in case:
        irreps.pop(int(case[-1]))
    expected = {
        "bd2 rho_1+rho_3": "<rho_1+rho_3, rho_1+rho_3> = 2, expected 1",
        "c3 rho_1+rho_2": "<rho_1+rho_2, rho_1+rho_2> = 2, expected 1",
        "bd2 rho_0+rho_1": "<rho_0, rho_0+rho_1> = 1, expected 0",
        "bd2 without rho_4": "dimension squares sum to 7, group order is 8",
        "bd3 without rho_2": "dimension squares sum to 8, group order is 12",
    }
    failure = oracle_orthonormality_failure(setup.group, irreps)
    if case in expected:
        assert failure == expected[case]
    report = verify_irreps(setup.group, irreps)
    assert report.failure == failure
    assert report.passed == (failure is None)


def test_orthonormality_prime_exceeds_dim_squares_and_order(monkeypatch, bd2, c3):
    primes = []

    class Recording(reps_mod.ModularImage):
        def __init__(self, conductor, above):
            super().__init__(conductor, above)
            primes.append(self.p)

    monkeypatch.setattr(reps_mod, "ModularImage", Recording)
    q8 = build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))
    for setup in (bd2, c3, q8, binary_dihedral(3), cyclic_diagonal(1, [1])):
        primes.clear()
        assert verify_irreps(setup.group, list(setup.irreps)).passed
        assert len(primes) == 1
        assert primes[0] > max(r.dim for r in setup.irreps) ** 2
        assert primes[0] > setup.group.order


def test_verify_irreps_compares_the_schreier_edges_only(monkeypatch):
    # one RightMultiplier application per Schreier edge and irrep, |G| k -
    # |G| + 1 edges (49 of the 96 (element, generator) pairs on binary
    # dihedral l = 12), and no CycMatrix product at all
    q8 = build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))
    applications, products = [], []
    apply, multiply = RightMultiplier.__call__, CycMatrix.__mul__

    def counting_apply(self, flat):
        applications.append(1)
        return apply(self, flat)

    def counting_multiply(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(RightMultiplier, "__call__", counting_apply)
    monkeypatch.setattr(CycMatrix, "__mul__", counting_multiply)
    for setup, edges in ((binary_dihedral(2), 9), (binary_dihedral(12), 49),
                         (q8, 9)):
        group = setup.group
        assert len(group.schreier_edges()) == edges == \
            group.order * len(group.generators) - group.order + 1
        applications.clear()
        products.clear()
        assert verify_irreps(group, list(setup.irreps)).passed
        assert len(applications) == edges * len(setup.irreps)
        assert products == []


def oracle_tree_products(rep):
    """Every element's matrix as the CycMatrix product along the spanning
    tree, from the generator images (irrep_from_images checks that each
    generator's element carries its image)."""
    group = rep.group
    images = [rep.matrix(group.index_of(g)) for g in group.generators]
    out = [CycMatrix.identity(rep.dim)] * group.order
    for j, parent, letter in group.tree:
        out[j] = out[parent] * images[letter]
    return out


@pytest.mark.parametrize("name", ["bd2", "bd3", "bd12", "c3", "q8_explicit"])
def test_irrep_tables_match_the_tree_products(name, bd2, c3):
    if name == "q8_explicit":
        setup = build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))
    else:
        setup = {"bd2": bd2, "c3": c3, "bd3": binary_dihedral(3),
                 "bd12": binary_dihedral(12)}[name]
    group = setup.group
    gens = [group.index_of(g) for g in group.generators]
    for rep in setup.irreps:
        expected = oracle_tree_products(rep)
        for i in range(group.order):
            assert rep.matrix(i) == expected[i]
            for s in gens:
                assert rep.matrix(group.mul(i, s)) == expected[i] * expected[s]
        for c, value in enumerate(rep.character().values):
            assert value == expected[group.class_representative(c)].trace()


@pytest.mark.parametrize("name", ["bd2", "bd12", "q8_explicit", "c3", "z4"])
def test_characters_are_constant_on_classes(name, bd2, c3):
    # verify_irreps no longer checks this: a table that passes the identity,
    # generator and Schreier checks is a homomorphism, so its trace is a
    # class function.  The oracle is the CycMatrix trace of every element.
    if name == "q8_explicit":
        setup = build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))
    else:
        setup = {"bd2": bd2, "c3": c3, "bd12": binary_dihedral(12),
                 "z4": cyclic_diagonal(4, [1, 1, 1, 1])}[name]
    group = setup.group
    for rep in setup.irreps:
        values = rep.character().values
        for c, orbit in enumerate(group.classes):
            assert {rep.trace(i) for i in orbit} == {rep.trace(orbit[0])}
            assert all(rep.matrix(i).trace() == values[c] for i in orbit)


def test_right_multipliers_keep_one_product_per_distinct_matrix():
    # the tree extension and the Schreier check apply each generator's
    # multiplier to every element, |G| k = 96 applications per irrep on
    # binary dihedral l = 12; the non-faithful irreps repeat matrices, so
    # 305 distinct table values of 720 are multiplied once per generator,
    # and every kept product is the CycMatrix product.  verify_irreps
    # releases the products once an irrep's edges hold, so the irreps are
    # built outside a Setup and the edges applied here.
    group = binary_dihedral(12).group
    irreps = [irrep_from_images(group, rep.index, rep.name,
                                [rep.matrix(group.index_of(g))
                                 for g in group.generators])
              for rep in binary_dihedral(12).irreps]
    for rep in irreps:
        for i, g in group.schreier_edges():
            rep.multipliers[g](rep.table[i])
    assert sum(len(rep.table) for rep in irreps) == 720
    assert sum(len(set(rep.table)) for rep in irreps) == 305
    for rep in irreps:
        for g, action in enumerate(rep.multipliers):
            image = rep.matrix(group.index_of(group.generators[g]))
            assert set(action._products) == set(rep.table)
            for x, y in action._products.items():
                assert unflatten(y, rep.dim, rep.conductor) == \
                    unflatten(x, rep.dim, rep.conductor) * image


def test_a_built_setup_releases_the_multiplier_products():
    # verify_irreps is the last to apply the multipliers, so it releases
    # each irrep's products once its edges hold and a Setup keeps none; the
    # maps themselves still apply
    q8 = build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))
    for setup in (binary_dihedral(2), cyclic_diagonal(3, [1, 1, 1]), q8,
                  binary_dihedral(12)):
        irreps = list(setup.irreps)
        assert all(not action._products for rep in irreps
                   for action in rep.multipliers)
        assert verify_irreps(setup.group, irreps).passed
        assert all(not action._products for rep in irreps
                   for action in rep.multipliers)


def test_characters_are_reduced_once_per_setup(monkeypatch):
    # verify_irreps and the Lambda^k tables share one prime and one
    # reduction of the irrep characters
    calls = []
    reduce = reps_mod._character_residues

    def counting(group, chars, image):
        calls.append(image.p)
        return reduce(group, chars, image)

    monkeypatch.setattr(reps_mod, "_character_residues", counting)
    for build in (lambda: binary_dihedral(6), lambda: cyclic_diagonal(4, [1, 1, 1]),
                  lambda: build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))):
        calls.clear()
        setup = build()
        assert len(calls) == 1
        for k in range(1, setup.n_plus_1 + 1):
            assert setup.lambda_table(k)
        assert setup.sym_decomposition(5, 0) and setup.det_twist(0) >= 0
        assert len(calls) == 1


def test_det_trivial_agrees_with_the_det_character(bd2, c3):
    # det_trivial reads the certified det permutation; the Lambda^(n+1)
    # character over CycNum is its oracle
    one = CycNum.one()
    setups = [bd2, c3, binary_dihedral(3), binary_dihedral(12),
              cyclic_diagonal(1, [0, 0]), cyclic_diagonal(4, [1, 3]),
              cyclic_diagonal(4, [1, 0]), cyclic_diagonal(4, [1, 1, 1, 1]),
              cyclic_diagonal(5, [1, 2, 2]), cyclic_diagonal(6, [1, 5])]
    setups += [build_setup(load_scenario(path))
               for path in sorted(SCENARIOS.glob("*.json"))]
    seen = set()
    for setup in setups:
        expected = all(v == one for v in setup.det_character().values)
        assert setup.det_trivial() is expected
        seen.add(expected)
    assert seen == {True, False}


def test_irrep_table_normalizes_denominators():
    # R has trace -1 and determinant 1, so R^2 + R + 1 = 0 and R has order 3:
    # an image of Z/3 with denominators, whose cube comes back to den 1
    group = cyclic_diagonal(3, [1, 2]).group
    r = CycMatrix([[Fraction(-1, 2), Fraction(-3, 4)], [1, Fraction(-1, 2)]])
    rep = irrep_from_images(group, 0, "R", [r])
    g = group.index_of(group.generators[0])
    g2 = group.mul(g, g)
    assert rep.table[g] == (((0, -2), (1, -3), (2, 4), (3, -2)), 4)
    # R^2 = [[-1/2, 3/4], [-1, -1/2]]: over 16 before the gcd, 4 after
    assert rep.table[g2] == (((0, -2), (1, 3), (2, -4), (3, -2)), 4)
    assert rep.matrix(g2) == r * r
    # R^3 = 1 is the Schreier edge (g2, g): over 16 before the gcd, 1 after
    assert rep.multipliers[0](rep.table[g2]) == rep.table[0] == (((0, 1), (3, 1)), 1)
    assert rep.trace(g) == rep.trace(g2) == (((0, -1),), 1)
    assert [rep.matrix(i) for i in range(3)] == oracle_tree_products(rep)


def test_sym_power_low_degrees(bd2):
    chi = bd2.defining_character()
    assert sym_power_character(chi, 0) == bd2.trivial
    assert sym_power_character(chi, 1) == chi


def test_sym_power_matches_oracle(bd2, c3):
    for setup in (bd2, c3):
        group = setup.group
        chi = setup.defining_character()
        for m in range(6):
            sym = sym_power_character(chi, m)
            for c in range(len(group.classes)):
                rep = group.elements[group.class_representative(c)]
                assert sym.values[c] == oracle_sym_trace(rep, m), (m, c)


def test_sym_dual_steps_from_memoized_degrees():
    # A fresh setup, so every degree is a miss.  Each miss fetches the lower
    # degrees in ascending order, so the call depth must not grow with m.
    setup = cyclic_diagonal(3, [1, 1, 1])
    pairs = [(rho, sigma) for rho in range(3) for sigma in range(3)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        top = [setup.hom_dim(0, 150, rho, sigma) for rho, sigma in pairs]
    finally:
        sys.setrecursionlimit(limit)
    dual = setup.defining_character().dual()

    def by_characters(m, rho, sigma):
        chi = sym_power_character(dual, m) * setup.irreps[sigma].character()
        return chi.inner_int(setup.irreps[rho].character())

    assert top == [by_characters(150, rho, sigma) for rho, sigma in pairs]
    for m in range(8):
        for rho, sigma in pairs:
            assert setup.hom_dim(0, m, rho, sigma) == by_characters(m, rho, sigma)
    with pytest.raises(NegativeDegree):
        setup.sym_decomposition(-1, 0)


def test_molien_table_to_degree_8000_is_linear():
    # each sigma's rows are extended in order, so a table up to degree M
    # costs M rows rather than M^2 / 2 lookups; at M = 8000 the quadratic
    # table took about 17 s and the linear one about 0.05 s
    setup = cyclic_diagonal(3, [1, 1, 1])
    start = time.perf_counter()
    dims = [molien_dimension(setup, m) for m in range(8001)]
    assert time.perf_counter() - start < 5
    # every monomial of degree 3q in three variables is invariant, and no
    # other degree has an invariant
    assert dims[:7] == [1, 0, 0, 10, 0, 0, 28]
    assert dims[7998] == (7998 + 1) * (7998 + 2) // 2
    assert sum(dims[m] for m in range(8001) if m % 3) == 0


def test_ext_power_matches_oracle(bd2, c3):
    for setup in (bd2, c3):
        group = setup.group
        chi = setup.defining_character()
        for k in range(setup.n_plus_1 + 2):
            ext = ext_power_character(chi, k)
            for c in range(len(group.classes)):
                rep = group.elements[group.class_representative(c)]
                assert ext.values[c] == oracle_ext_trace(rep, k), (k, c)


def test_ext_power_special_cases(bd2, c3):
    # top exterior power is the determinant character; both groups sit in SL
    assert ext_power_character(bd2.defining_character(), 2) == bd2.trivial
    assert ext_power_character(c3.defining_character(), 3) == c3.trivial
    # beyond the dimension the character vanishes
    zero = CharacterVec.zero(bd2.group)
    assert ext_power_character(bd2.defining_character(), 3) == zero


def test_sym_squared_and_fourth_invariants(bd2):
    # degree-2 polynomials carry no invariant; degree 4 carries exactly two
    # (computed from the monomial action: x^2 y^2 and x^4 + y^4)
    chi2 = sym_power_character(bd2.defining_character().dual(), 2)
    assert chi2.values[0] == 3
    assert chi2.inner_int(bd2.trivial) == 0
    chi4 = sym_power_character(bd2.defining_character().dual(), 4)
    assert chi4.inner_int(bd2.trivial) == 2
    assert oracle_invariant_dim(bd2.group, 4) == 2


def test_molien_matches_oracle(bd2, c3):
    for setup in (bd2, c3):
        for m in range(11):
            assert molien_dimension(setup, m) == oracle_invariant_dim(setup.group, m)


def test_molien_hand_counted_values(bd2):
    # hand count for the order-8 binary dihedral group: invariants are
    # generated by x^2y^2 (degree 4), x^4+y^4 (degree 4), x^5y-xy^5 (degree 6)
    # with a single relation in degree 12
    expected = {0: 1, 1: 0, 2: 0, 3: 0, 4: 2, 5: 0, 6: 1, 7: 0, 8: 3, 10: 2, 12: 4}
    for m, dim in expected.items():
        assert molien_dimension(bd2, m) == dim


def test_molien_cyclic(c3):
    assert molien_dimension(c3, 0) == 1
    assert molien_dimension(c3, 1) == 0
    assert molien_dimension(c3, 2) == 0
    # every degree-3 monomial in three variables is invariant
    assert molien_dimension(c3, 3) == 10


def test_hom_dims_quiver_row(bd2):
    # twist step 0 -> 1: arrows join rho_2 to each 1-dimensional irrep only
    expected = {
        (2, 0): 1, (2, 1): 1, (2, 3): 1, (2, 4): 1,
        (0, 2): 1, (1, 2): 1, (3, 2): 1, (4, 2): 1,
    }
    for rho in range(5):
        for sigma in range(5):
            assert bd2.hom_dim(0, 1, rho, sigma) == expected.get((rho, sigma), 0)
    # degree zero: only scalars between equal irreps
    for rho in range(5):
        for sigma in range(5):
            assert bd2.hom_dim(0, 0, rho, sigma) == (1 if rho == sigma else 0)
    # negative twist difference: zero
    assert bd2.hom_dim(1, 0, 0, 0) == 0


def test_hom_dims_cyclic(c3):
    assert c3.hom_dim(0, 1, 0, 1) == 3
    assert c3.hom_dim(0, 1, 0, 2) == 0
    assert c3.hom_dim(0, 2, 0, 2) == 6
    assert c3.hom_dim(0, 3, 0, 0) == 10


def test_scalar_weights(bd2, c3):
    info = bd2.central_scalars(2)
    assert [bd2.irrep_scalar_weight(j, info) for j in range(5)] == [0, 0, 1, 0, 0]
    info3 = c3.central_scalars(3)
    assert [c3.irrep_scalar_weight(j, info3) for j in range(3)] == [0, 1, 2]


def test_scalar_weights_computed_once_per_irrep(monkeypatch):
    setup = cyclic_diagonal(3, [1, 1, 1])
    views = []
    matrix = reps_mod.Irrep.matrix

    def counting(rep, i):
        views.append(i)
        return matrix(rep, i)

    monkeypatch.setattr(reps_mod.Irrep, "matrix", counting)
    info = setup.central_scalars(3)
    for _ in range(3):
        assert [setup.irrep_scalar_weight(j, info) for j in range(3)] == [0, 1, 2]
    assert len(views) == 3


def test_dual_and_power_map(bd2):
    chi = bd2.irreps[2].character()
    # the 2-dim irrep is self-dual
    assert chi.dual() == chi
    assert chi.power_map(1) == chi
    assert chi.power_map(-1) == chi.dual()
