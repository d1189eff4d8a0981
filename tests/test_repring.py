"""The integer representation ring against the character path.

Setup builds the tables L_k (Lambda^k V-dual tensor rho_sigma decomposed
into irreps) and the det permutation modulo a prime, and every Hom and Ext
dimension, Koszul reduction and Molien dimension is integer work on them.
Here each of those is recomputed from CycNum characters (Newton power
characters and exact inner products) over a derandomized sweep of groups,
including actions outside SL where the det permutation moves irreps.
"""

from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from eqcol.cohomology import (EqLineBundle, KClass, _reduce_bundle,
                              ext_dim_equivariant)
from eqcol.cyclotomic import (CycNum, ModularImage, _is_prime, _prime_factors,
                               parse_cyc)
from eqcol.errors import CertificateFailure
from eqcol.reps import (_lambda_tables, binary_dihedral, cyclic_diagonal,
                        molien_dimension, setup_memo, sym_power_character)
from eqcol.scenario import build_setup, load_scenario
from test_cohomology import ext_dim_oracle, ext_dual

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SWEEP = settings(derandomize=True, max_examples=25, deadline=None)

cyclic_specs = st.integers(1, 6).flatmap(
    lambda m: st.tuples(st.just("cyclic"), st.just(m),
                        st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=4).map(tuple))
).filter(lambda spec: gcd(spec[1], *spec[2]) == 1)
specs = st.one_of(cyclic_specs,
                  st.tuples(st.just("binary_dihedral"), st.integers(1, 6)),
                  st.just(("explicit",)))


@lru_cache(maxsize=None)
def build(spec):
    if spec[0] == "cyclic":
        return cyclic_diagonal(spec[1], list(spec[2]))
    if spec[0] == "binary_dihedral":
        return binary_dihedral(spec[1])
    return build_setup(load_scenario(SCENARIOS / "q8_explicit.json"))


def inner(setup, chi, sigma, rho):
    """<chi tensor rho_sigma, rho_rho> through CycNum."""
    return (chi * setup.irreps[sigma].character()).inner_int(
        setup.irreps[rho].character())


@setup_memo
def reduce_by_characters(setup, m, j):
    """The Koszul reduction of O(m) tensor rho_j, decomposing each
    Lambda^k V-dual (and det) twist by character inner products."""
    n = setup.n
    if 0 <= m <= n:
        return KClass.basis(setup, m, j)
    result = KClass.zero(setup)
    chi_j = setup.irreps[j].character()
    if m > n:
        steps = [(1 if k % 2 else -1, ext_dual(setup, k) * chi_j, m - k)
                 for k in range(1, n + 2)]
    else:
        outer = 1 if n % 2 == 0 else -1
        steps = [(outer * (1 if k % 2 == 0 else -1),
                  setup.det_character() * ext_dual(setup, k) * chi_j,
                  m + n + 1 - k) for k in range(n + 1)]
    for sign, chi, twist in steps:
        for l, rep in enumerate(setup.irreps):
            mult = chi.inner_int(rep.character())
            if mult:
                result = result + reduce_by_characters(setup, twist, l) * (sign * mult)
    return result


@SWEEP
@given(specs)
@example(("cyclic", 4, (1, 1)))
def test_lambda_tables_and_det_twist_match_characters(spec):
    setup = build(spec)
    r = setup.r_plus_1
    for k in range(1, setup.n_plus_1 + 1):
        table = setup.lambda_table(k)
        for sigma in range(r):
            row = dict(table[sigma])
            for rho in range(r):
                assert row.get(rho, 0) == inner(setup, ext_dual(setup, k),
                                                sigma, rho), (k, sigma, rho)
    det = setup.det_character()
    for sigma in range(r):
        assert setup.irreps[setup.det_twist(sigma)].character() == \
            det * setup.irreps[sigma].character()


@SWEEP
@given(specs)
@example(("cyclic", 4, (1, 1)))
def test_hom_and_ext_dims_match_characters(spec):
    setup = build(spec)
    n, r = setup.n, setup.r_plus_1
    dual = setup.defining_character().dual()
    for m in range(2 * n + 3):
        sym = sym_power_character(dual, m)
        for sigma in range(r):
            for rho in range(r):
                assert setup.hom_dim(0, m, rho, sigma) == \
                    inner(setup, sym, sigma, rho)
    for m in range(-2 * n - 2, 2 * n + 3):
        for rho in range(r):
            for sigma in range(r):
                source, target = EqLineBundle(0, rho), EqLineBundle(m, sigma)
                for k in {0, n}:
                    assert ext_dim_equivariant(setup, source, target, k) == \
                        ext_dim_oracle(setup, source, target, k), (m, rho, sigma, k)


@SWEEP
@given(specs)
@example(("cyclic", 4, (1, 1)))
def test_reduction_matches_character_recursion(spec):
    setup = build(spec)
    n = setup.n
    for m in range(-2 * n - 2, 2 * n + 3):
        for j in range(setup.r_plus_1):
            assert _reduce_bundle(setup, m, j) == \
                reduce_by_characters(setup, m, j), (m, j)


@settings(SWEEP, max_examples=12)
@given(specs)
@example(("cyclic", 4, (1, 1)))
def test_molien_matches_characters(spec):
    setup = build(spec)
    dual = setup.defining_character().dual()
    for m in range(25):
        assert molien_dimension(setup, m) == \
            sym_power_character(dual, m).inner_int(setup.trivial), m


# -- the modular image and the certificate ---------------------------------


def test_modular_image_is_a_ring_map():
    image = ModularImage(12, 1000)
    p = image.p
    assert p > 1000 and p % 12 == 1
    assert pow(image.omega, 12, p) == 1
    assert all(pow(image.omega, 12 // q, p) != 1 for q in (2, 3))
    values = [parse_cyc(t) for t in ("z4", "2*z3 - 1/5", "z12^5 + 3", "-7/3",
                                     "z12 - z12^7 + 1/2*z3^2")]
    for x in values:
        assert image(x.conjugate()) == image(x, conjugate=True)
        for y in values:
            assert image(x * y) == image(x) * image(y) % p
            assert image(x + y) == (image(x) + image(y)) % p
    assert image(CycNum.from_rat(5)) == 5
    # the least prime = 1 (mod N) strictly above the bound
    assert [ModularImage(4, b).p for b in (12, 13)] == [13, 17]
    assert ModularImage(1, 1).p == 2


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(2, 10 ** 5) if _prime_factors(n) == (n,)]
    # Mersenne primes, 10^9 + 7, and the least prime above 10^18
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 9 + 7, 10 ** 18 + 3):
        assert _is_prime(p)
    # a Carmichael number, a product and a square of large primes, and
    # strong pseudoprimes to every prime base up to 23 and up to 37
    for n in (561, (2 ** 31 - 1) * (10 ** 9 + 7), (2 ** 31 - 1) ** 2,
              3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    image = ModularImage(7, 2 ** 31)
    assert image.p == next(p for p in range(2 ** 31 + 1, 2 ** 32)
                           if p % 7 == 1 and _prime_factors(p) == (p,))


def test_modular_image_refuses_vanishing_denominators():
    image = ModularImage(4, 10)
    with pytest.raises(CertificateFailure):
        image(CycNum.from_rat(1) / image.p)
    with pytest.raises(CertificateFailure):
        image.inverse(2 * image.p)


def test_certificate_refuses_a_corrupted_character_table():
    # rho_2 is the defining representation V (= V-dual); claiming twice the
    # trivial character for it leaves V-dual tensor rho_0 with no summand,
    # which fails the dimension certificate of L_1.  The tables read the
    # character residues that verify_irreps took, so those are corrupted.
    setup = binary_dihedral(3)
    image, left, right = setup._residues
    left[2] = [2 * x % image.p for x in left[0]]
    right[2] = [2 * x % image.p for x in right[0]]
    with pytest.raises(CertificateFailure, match="dimension certificate"):
        _lambda_tables(setup)
