"""Exact cyclotomic arithmetic: frozen oracles and field properties."""

import random
from functools import lru_cache
from math import gcd
from fractions import Fraction

import pytest

from eqcol.cyclotomic import (
    CycNum,
    _int_poly_divexact,
    _restrict,
    common_conductor,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    parse_cyc,
)
from eqcol.errors import InvalidParameter


def oracle_cyclotomic(n: int) -> tuple[int, ...]:
    """Independent recomputation: divide x^n - 1 by the proper-divisor factors.

    Same identity as the implementation but written against plain integer
    long division, no shared helpers.
    """
    def poly_div(num, den):
        num = list(num)
        out = [0] * (len(num) - len(den) + 1)
        for i in range(len(num) - 1, len(den) - 2, -1):
            assert num[i] % den[-1] == 0
            c = num[i] // den[-1]
            out[i - len(den) + 1] = c
            for j, dj in enumerate(den):
                num[i - len(den) + 1 + j] -= c * dj
        assert not any(num[: len(den) - 1])
        return out

    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly_div(poly, list(oracle_cyclotomic(d)))
    return tuple(poly)


# Frozen from oracle_cyclotomic, spot-checked by hand for 1..6 and 12.
KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
    16: (1, 0, 0, 0, 0, 0, 0, 0, 1),
    20: (1, 0, -1, 0, 1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_oracle():
    for n in range(1, 40):
        assert cyclotomic_polynomial(n) == oracle_cyclotomic(n)


def test_cyclotomic_polynomials_frozen_values():
    for n, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_polynomial(n) == coeffs
        assert oracle_cyclotomic(n) == coeffs


def test_cyclotomic_product_over_divisors():
    # prod_{d | n} Phi_d = x^n - 1
    for n in (1, 2, 6, 12, 18, 24, 30):
        prod = [Fraction(1)]
        for d in divisors(n):
            phi_d = cyclotomic_polynomial(d)
            new = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            prod = new
        expected = [Fraction(0)] * (n + 1)
        expected[0], expected[n] = Fraction(-1), Fraction(1)
        assert prod == expected


@lru_cache(maxsize=None)
def fraction_cyclotomic(n: int) -> tuple[int, ...]:
    """The previous implementation, kept as an oracle: Fraction long
    division of x^n - 1 by the cyclotomic polynomials of the proper
    divisors, then an integrality check."""
    def divmod_poly(num, den):
        num = list(num)
        dn = len(den) - 1
        quot = [Fraction(0)] * (len(num) - dn)
        for i in range(len(num) - 1, dn - 1, -1):
            c = num[i] / den[-1]
            if c:
                quot[i - dn] = c
                for j, dj in enumerate(den):
                    num[i - dn + j] -= c * dj
        return quot, num[:dn]

    poly = [Fraction(0)] * (n + 1)
    poly[0], poly[n] = Fraction(-1), Fraction(1)
    for d in divisors(n)[:-1]:
        poly, rem = divmod_poly(poly, [Fraction(c) for c in fraction_cyclotomic(d)])
        assert not any(rem)
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def test_cyclotomic_polynomials_match_fraction_division():
    for n in range(1, 301):
        assert cyclotomic_polynomial(n) == fraction_cyclotomic(n)


@pytest.mark.parametrize("n", [1680, 4620])
def test_cyclotomic_product_is_x_n_minus_one_at_large_n(n):
    prod = [1]
    for d in divisors(n):
        terms = [(j, c) for j, c in enumerate(cyclotomic_polynomial(d)) if c]
        new = [0] * (len(prod) + terms[-1][0])
        for i, a in enumerate(prod):
            if a:
                for j, b in terms:
                    new[i + j] += a * b
        prod = new
    assert prod == [-1] + [0] * (n - 1) + [1]


def test_integer_division_rejects_inexact_and_non_integral_quotients():
    assert _int_poly_divexact([-1, 0, 1], (1, 1)) == [-1, 1]
    with pytest.raises(InvalidParameter, match="inexact"):
        _int_poly_divexact([1, 0, 1], (1, 1))  # x^2 + 1 = (x - 1)(x + 1) + 2
    with pytest.raises(InvalidParameter, match="not integral"):
        _int_poly_divexact([0, 1], (0, 2))  # x / 2x = 1/2


def test_degree_is_totient():
    for n in (1, 3, 4, 8, 9, 12, 16, 20):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_zeta_basic_identities():
    assert CycNum.zeta(4) ** 2 == -1
    assert CycNum.zeta(3) + CycNum.zeta(3, 2) == -1
    assert CycNum.zeta(8) ** 4 == -1
    assert CycNum.zeta(5) ** 5 == 1
    assert CycNum.zeta(1) == 1
    assert CycNum.zeta(2) == -1
    # sum of all n-th roots of unity vanishes for n > 1
    for n in (2, 3, 4, 6, 8, 12):
        total = CycNum.zero()
        for k in range(n):
            total = total + CycNum.zeta(n, k)
        assert total == 0


def test_conductor_normalization():
    # zeta_6 lives in Q(zeta_3): zeta_6 = -zeta_3^2
    z6 = CycNum.zeta(6)
    assert z6.conductor == 3
    assert z6 == -CycNum.zeta(3, 2)
    assert z6 ** 6 == 1
    assert z6 ** 3 == -1
    z10 = CycNum.zeta(10)
    assert z10.conductor == 5
    assert z10 ** 10 == 1
    assert z10 ** 5 == -1


def test_mixed_conductor_arithmetic():
    # zeta_4 * zeta_3 is a primitive 12th root
    w = CycNum.zeta(4) * CycNum.zeta(3)
    assert w == CycNum.zeta(12, 7)
    assert w ** 12 == 1
    assert all(w ** k != 1 for k in range(1, 12))


def test_inverse_and_division():
    x = CycNum.one() + CycNum.zeta(5)
    assert x * x.inverse() == 1
    y = CycNum.zeta(8, 3) - CycNum.from_rat(Fraction(1, 2))
    assert (y / y) == 1
    assert (1 / CycNum.zeta(7)) == CycNum.zeta(7, 6)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero().inverse()


def test_reduction_to_minimal_conductor():
    # zeta_8^2 = zeta_4 = i: reduced conductor drops from 8 to 4
    i = CycNum.zeta(8) ** 2
    assert i.reduced().conductor == 4
    assert i == CycNum.zeta(4)
    # zeta_5 + zeta_5^4 is real but irrational; its square satisfies
    # golden-ratio arithmetic: (zeta_5 + zeta_5^-1)^2 + (zeta_5 + zeta_5^-1) = 1
    t = CycNum.zeta(5) + CycNum.zeta(5, 4)
    assert t * t + t == 1
    # rational recognition
    r = CycNum.zeta(3) * CycNum.zeta(3, 2)
    assert r.reduced().conductor == 1 and r.as_rat() == 1


def test_common_conductor_is_the_lcm_of_stored_conductors():
    rows = [[CycNum.zeta(4), CycNum.from_rat(2)], [], [CycNum.zeta(5, 2)]]
    assert common_conductor(rows) == 20
    assert common_conductor(iter(rows[:2])) == 4
    assert common_conductor([]) == 1
    # the stored conductor is read as it is, not reduced first
    unreduced = CycNum.zeta(8) ** 2
    assert common_conductor([[unreduced]]) == 8


def test_galois_and_conjugation():
    z = CycNum.zeta(7)
    assert z.conjugate() == CycNum.zeta(7, 6)
    assert z.conjugate().conjugate() == z
    # automorphism property on a random sample
    rng = random.Random(11)
    for _ in range(20):
        n = random.Random(rng.random()).choice([5, 7, 8, 9, 12])
        a = _random_cyc(rng, n)
        b = _random_cyc(rng, n)
        t = rng.choice([k for k in range(1, n) if _coprime(k, n)])
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        assert (a + b).galois(t) == a.galois(t) + b.galois(t)


def test_conjugation_fixes_rationals_and_inverts_roots():
    assert CycNum.from_rat(Fraction(3, 7)).conjugate() == Fraction(3, 7)
    # 1680 - phi(1680) = 1296 powers above phi: deeper than any default
    # recursion limit if each power recursed on the one below it
    for n in (3, 4, 5, 8, 12, 1680):
        z = CycNum.zeta(n)
        assert z * z.conjugate() == 1


def _coprime(a: int, b: int) -> bool:
    while b:
        a, b = b, a % b
    return a == 1


def _random_cyc(rng: random.Random, n: int) -> CycNum:
    total = CycNum.zero()
    for k in range(euler_phi(n)):
        if rng.random() < 0.6:
            num = rng.randint(-4, 4)
            den = rng.randint(1, 3)
            total = total + CycNum.zeta(n, k) * Fraction(num, den)
    return total


def test_field_axioms_on_random_elements():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([3, 4, 5, 8, 9, 12])
        a, b, c = (_random_cyc(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == 1
        if b:
            assert (a / b) * b == a


def test_embed_and_back_round_trip():
    rng = random.Random(19)
    for _ in range(10):
        a = _random_cyc(rng, 5)
        big = a.to_conductor(20)
        assert big.conductor == 20 or not a
        assert big == a
        assert big.reduced().conductor in divisors(5)


def test_literal_round_trip():
    cases = [
        CycNum.zero(),
        CycNum.one(),
        CycNum.from_rat(Fraction(-3, 2)),
        CycNum.zeta(8, 3) * Fraction(1, 2) - CycNum.zeta(8),
        CycNum.zeta(3),
        CycNum.zeta(12) + 1,
        -CycNum.zeta(4),
    ]
    rng = random.Random(3)
    for n in (5, 8, 12):
        cases.extend(_random_cyc(rng, n) for _ in range(5))
    for value in cases:
        assert parse_cyc(str(value)) == value


def test_literal_examples():
    assert parse_cyc("1/2*z8^3 - z8") == CycNum.zeta(8, 3) * Fraction(1, 2) - CycNum.zeta(8)
    assert parse_cyc("-5") == -5
    assert parse_cyc("0") == 0
    assert parse_cyc("2/3") == Fraction(2, 3)
    assert parse_cyc("z4") == CycNum.zeta(4)
    assert parse_cyc("z6") == CycNum.zeta(6)
    assert parse_cyc("3*z5^2 + 1") == CycNum.zeta(5, 2) * 3 + 1


def test_literal_rejects_garbage():
    for bad in ("", "z", "1 +", "* z4", "z4^", "1..2", "zeta(4)", "+1"):
        with pytest.raises(InvalidParameter):
            parse_cyc(bad)


def test_literal_zero_denominator_is_invalid():
    for bad in ("1/0", "0/0", "z4 + 3/0*z8"):
        with pytest.raises(InvalidParameter, match="zero denominator"):
            parse_cyc(bad)


def test_printer_canonical_form():
    # printing always reduces: zeta_8^2 prints at conductor 4
    assert str(CycNum.zeta(8) ** 2) == "z4"
    assert str(CycNum.zeta(3) + CycNum.zeta(3, 2)) == "-1"
    assert str(CycNum.zero()) == "0"
    assert str(CycNum.from_rat(Fraction(7, 3))) == "7/3"
    s = str(CycNum.zeta(8, 3) * Fraction(1, 2) - CycNum.zeta(8))
    assert s == "1/2*z8^3 - z8"


def test_hash_consistency():
    a = CycNum.zeta(8) ** 2
    b = CycNum.zeta(4)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_rational_hash_matches_python_numbers():
    assert len({CycNum.one(), 1}) == 1
    assert hash(CycNum.one()) == hash(1)
    half = CycNum.from_rat(Fraction(1, 2))
    for n in (4, 12, 15):
        lifted = half.to_conductor(n)
        assert lifted.conductor == n
        assert lifted == Fraction(1, 2) and hash(lifted) == hash(Fraction(1, 2))
    assert {Fraction(-3, 4): "x"}[CycNum.zeta(8) ** 4 * Fraction(3, 4)] == "x"
    assert hash(CycNum.zeta(3) + CycNum.zeta(3, 2)) == hash(-1)


# -- the integer-coordinate fast path against the Fraction-tuple arithmetic --


def _oracle_power_mod_phi(n, k):
    phi = euler_phi(n)
    row = [0] * phi
    if k < phi:
        row[k] = 1
        return row
    prev = _oracle_power_mod_phi(n, k - 1)
    shifted = [0] + prev[:-1]
    cyc = cyclotomic_polynomial(n)
    for i in range(phi):
        shifted[i] -= prev[-1] * cyc[i]
    return shifted


def _oracle_normalize(n):
    return 1 if n == 2 else (n // 2 if n % 4 == 2 else n)


def _oracle_poly_divmod(num, den):
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    dn = len(den) - 1
    if len(num) - 1 < dn:
        return [Fraction(0)], num
    quot = [Fraction(0)] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / den[-1]
        if c:
            quot[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    return quot, num[:dn] if dn else [Fraction(0)]


def _oracle_subfield(n, c, coeffs):
    phi_c = euler_phi(c)
    cols = [_oracle_power_mod_phi(n, j * (n // c)) for j in range(phi_c)]
    matrix = [[Fraction(cols[j][i]) for j in range(phi_c)] + [coeffs[i]]
              for i in range(len(coeffs))]
    rank, pivots = 0, []
    for col in range(phi_c):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [v - f * w for v, w in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
    if any(row[-1] for row in matrix[rank:]):
        return None
    coords = [Fraction(0)] * phi_c
    for lead, row in zip(pivots, matrix):
        coords[lead] = row[-1]
    return tuple(coords)


class OracleCyc:
    """The Fraction-tuple cyclotomic arithmetic the package used before its
    integer-coordinate form: every operation lifts both sides to the lcm
    conductor, and equality compares the reduced forms."""

    def __init__(self, conductor, coeffs):
        self.conductor = conductor
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def to_conductor(self, m):
        m = _oracle_normalize(m)
        n = self.conductor
        out = [Fraction(0)] * euler_phi(m)
        for i, c in enumerate(self.coeffs):
            for j, e in enumerate(_oracle_power_mod_phi(m, i * (m // n))):
                out[j] += c * e
        return OracleCyc(m, out)

    def _common(self, other):
        m = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.to_conductor(m), other.to_conductor(m)

    def _from_poly(self, n, poly):
        out = [Fraction(0)] * euler_phi(n)
        for k, c in enumerate(poly):
            for j, e in enumerate(_oracle_power_mod_phi(n, k)):
                out[j] += c * e
        return OracleCyc(n, out)

    def __add__(self, other):
        a, b = self._common(other)
        return OracleCyc(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return OracleCyc(self.conductor, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._common(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        return self._from_poly(a.conductor, prod)

    def inverse(self):
        n = self.conductor
        if n == 1:
            return OracleCyc(1, [1 / self.coeffs[0]])
        r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r1 = list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _oracle_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            qs = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    qs[i + j] += x * y
            size = max(len(s0), len(qs))
            s0, s1 = s1, [(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
                          for i in range(size)]
        return self._from_poly(n, [c / r1[0] for c in s1])

    def __truediv__(self, other):
        return self * other.inverse()

    def galois(self, t):
        n = self.conductor
        if n == 1:
            return self
        poly = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            poly[(i * t) % n] += c
        return self._from_poly(n, poly)

    def conjugate(self):
        return self.galois(self.conductor - 1)

    def reduced(self):
        n = self.conductor
        for cand in divisors(n):
            if cand % 4 == 2 or cand == n:
                continue
            coords = _oracle_subfield(n, cand, self.coeffs)
            if coords is not None:
                return OracleCyc(cand, coords)
        return self

    def key(self):
        red = self.reduced()
        return (red.conductor, red.coeffs)

    def __eq__(self, other):
        return self.key() == other.key()

    def __str__(self):
        red = self.reduced()
        if red.conductor == 1:
            return str(red.coeffs[0])
        parts = []
        for k in range(len(red.coeffs) - 1, -1, -1):
            c = red.coeffs[k]
            if not c:
                continue
            z = f"z{red.conductor}" + (f"^{k}" if k > 1 else "")
            body = str(abs(c)) if k == 0 else (z if abs(c) == 1 else f"{abs(c)}*{z}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"


ORACLE_CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 24)


def _random_pair(rng: random.Random, n: int):
    """A value at conductor n in both arithmetics: zero, rational, lifted
    from a subfield, a root of unity, or general."""
    shape = rng.choice(["zero", "rational", "subfield", "root", "general",
                        "general"])
    phi = euler_phi(n)
    coeffs = [Fraction(0)] * phi
    if shape == "rational":
        coeffs[0] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    elif shape == "root":
        coeffs = list(CycNum.zeta(n, rng.randrange(n)).coeffs)
    elif shape in ("general", "subfield"):
        for k in range(phi):
            if rng.random() < 0.6:
                coeffs[k] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
    oracle = OracleCyc(n, coeffs)
    if shape == "subfield":
        sub = rng.choice([d for d in divisors(n) if d % 4 != 2])
        oracle = OracleCyc(sub, coeffs[:euler_phi(sub)]).to_conductor(n)
    value = CycNum.zero()
    for k, c in enumerate(oracle.coeffs):
        value = value + CycNum.zeta(n, k) * c
    if n > 1 and not any(oracle.coeffs):
        value = value.to_conductor(n)
    return value, oracle


def _assert_same(value: CycNum, oracle: OracleCyc):
    assert value.conductor == oracle.conductor
    assert value.coeffs == oracle.coeffs
    assert value.den > 0 and gcd(value.den, *value.num) == 1
    red, ored = value.reduced(), oracle.reduced()
    assert (red.conductor, red.coeffs) == (ored.conductor, ored.coeffs)
    assert red.den > 0 and gcd(red.den, *red.num) == 1
    assert str(value) == str(oracle)


def test_integer_arithmetic_matches_fraction_oracle():
    rng = random.Random(2024)
    for _ in range(250):
        n1, n2 = rng.choice(ORACLE_CONDUCTORS), rng.choice(ORACLE_CONDUCTORS)
        a, oa = _random_pair(rng, n1)
        b, ob = _random_pair(rng, n2)
        _assert_same(a, oa)
        _assert_same(b, ob)
        _assert_same(a + b, oa + ob)
        _assert_same(a - b, oa - ob)
        _assert_same(-a, -oa)
        _assert_same(a * b, oa * ob)
        if b:
            _assert_same(a / b, oa / ob)
        for t in (1, 5, 7, 11):
            if gcd(t, n1) == 1:
                _assert_same(a.galois(t), oa.galois(t))
        _assert_same(a.conjugate(), oa.conjugate() if n1 > 1 else oa)
        m = rng.choice([m for m in ORACLE_CONDUCTORS if m % n1 == 0])
        _assert_same(a.to_conductor(m), oa.to_conductor(m))
        # equality, keys and hashes agree with the reduced forms
        assert (a == b) == (oa == ob) == (a.key() == b.key())
        twin = (a * b + b).to_conductor(n1 * n2 // gcd(n1, n2)) - b
        assert twin == a * b and twin.key() == (a * b).key()
        assert hash(twin) == hash(a * b)
        if (a * b).reduced().conductor == 1:
            assert hash(twin) == hash((a * b).as_rat())


# -- restriction by the basis split and inverse by the norm, against the oracle --

SPLIT_CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 12, 16, 20, 24, 27, 36, 40, 45, 60, 120)


def _subfield_values(rng: random.Random, n: int):
    """One value from each subfield Q(zeta_d), d | n, embedded at conductor
    n in both arithmetics: each is a member of the fields that contain
    Q(zeta_d) and a non-member of the others."""
    for d in divisors(n):
        if d % 4 == 2:
            continue
        coeffs = [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                  for _ in range(euler_phi(d))]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        oracle = OracleCyc(d, coeffs).to_conductor(n)
        value = CycNum.zero()
        for k, c in enumerate(oracle.coeffs):
            value = value + CycNum.zeta(n, k) * c
        yield value.to_conductor(n), oracle


def _prime_power(n: int, p: int) -> int:
    q = p
    while n % (q * p) == 0:
        q *= p
    return q


def test_restriction_matches_oracle_subfield():
    rng = random.Random(13)
    seen = set()
    for n in SPLIT_CONDUCTORS:
        for value, oracle in _subfield_values(rng, n):
            for p in (p for p in (2, 3, 5, 7) if n % p == 0):
                c = _oracle_normalize(n // p)
                want = _oracle_subfield(n, c, oracle.coeffs)
                got = _restrict(value, p)
                assert (got is None) == (want is None), (n, p, oracle.coeffs)
                q = _prime_power(n, p)
                if q >= p * p and q != 4:
                    seen.add("slice q>=8" if p == 2 else "slice odd p")
                else:
                    seen.add("split q=4" if q == 4 else "split q=p")
                seen.add("member" if got is not None else "non-member")
                if got is not None:
                    seen.add("to 1" if c == 1 else "to subfield")
                    assert got.conductor == c and got.coeffs == want
                    assert got.den > 0 and gcd(got.den, *got.num) == 1
    # every case of _restrict, and each outcome
    assert seen == {"slice q>=8", "slice odd p", "split q=p", "split q=4",
                    "member", "non-member", "to 1", "to subfield"}


def test_reduced_and_inverse_match_oracle_by_conductor():
    rng = random.Random(17)
    for n in SPLIT_CONDUCTORS:
        for value, oracle in _subfield_values(rng, n):
            _assert_same(value, oracle)
            if value:
                # a fresh copy, whose minimal form inverse() must find itself
                inv = CycNum(value.conductor, value.num, value.den).inverse()
                _assert_same(inv, oracle.inverse())
                assert inv * value == 1
