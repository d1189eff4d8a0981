"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as integer numerators over one common denominator,

    (num[0] + num[1] z + ... + num[phi(N)-1] z^(phi(N)-1)) / den,

in the power basis modulo the N-th cyclotomic polynomial.  Every value is
normalized where it is made, so that den > 0 and gcd(den, *num) == 1; a
value therefore has exactly one (num, den) at a given conductor.  All field
arithmetic runs on these integers, with no floating point and no
elimination.  Conductors are normalized so that N is never congruent to
2 mod 4 (Q(zeta_2m) = Q(zeta_m) for odd m), which makes the minimal
conductor of a value unique.

Equality needs no reduction: the power basis modulo Phi_N is a basis of
Q(zeta_N), so two values at one conductor are equal exactly when their
(num, den) pairs are, and values at different conductors are compared
after embedding both at the lcm.  The minimal-conductor form (`reduced()`)
is computed only for hashing, printing and rationality tests, and cached
on the value.  A rational value hashes as the equal `Fraction`.

Two basis facts replace elimination (L. C. Washington, Introduction to
Cyclotomic Fields, GTM 83, ch. 2).  The Galois group of Q(zeta_N) is
(Z/N)^*, so the product of a value's conjugates is its rational norm, and
`inverse` divides the other conjugates by it.  Phi_N(X) = Phi_(N/p)(X^p)
when p^2 | N, and Q(zeta_N) = Q(zeta_m) (x) Q(zeta_q) for coprime m q = N,
so `reduced()` reads subfield coordinates off the numerators.

Division by zero raises the built-in ZeroDivisionError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .config import conductor_cap
from .errors import CertificateFailure, ConductorOverflow, InvalidParameter

Rat = Fraction


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n <= 0:
        raise InvalidParameter(f"totient of non-positive {n}")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    primes = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


# The first 13 primes: as Miller-Rabin bases they decide primality of every
# n below 3.3 * 10^24 (J. Sorenson and J. Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below _MR_LIMIT, trial division
    above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        return _prime_factors(n) == (n,)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def common_conductor(value_lists) -> int:
    """The lcm of the stored conductors of every value in the lists, such
    as the rows of matrices or the values of characters: a conductor at
    which they all have coordinates."""
    conductor = 1
    for values in value_lists:
        for v in values:
            conductor = lcm(conductor, v.conductor)
    return conductor


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by exact integer division of x^n - 1 by the cyclotomic
    polynomials of the proper divisors of n.  Monic with integer
    coefficients.
    """
    if n < 1:
        raise InvalidParameter(f"cyclotomic polynomial of {n}")
    if n > conductor_cap():
        raise ConductorOverflow(f"conductor {n} exceeds cap {conductor_cap()}")
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in divisors(n)[:-1]:
        poly = _int_poly_divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _int_poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """num / den for integer polynomials (ascending coefficients) when the
    quotient has integer coefficients and the remainder is zero; long
    division over the nonzero terms of den, InvalidParameter otherwise."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    tail = [(j, c) for j, c in enumerate(den[:-1]) if c]
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c, rem = divmod(num[i], lead)
        if rem:
            raise InvalidParameter("cyclotomic polynomial is not integral")
        if c:
            quot[i - dn] = c
            for j, dj in tail:
                num[i - dn + j] -= c * dj
    if any(num[:dn]):
        raise InvalidParameter("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (i, c) below the leading term of Phi_n, so that
    x^phi(n) = -sum c x^i modulo Phi_n."""
    return tuple((i, c) for i, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)


@lru_cache(maxsize=None)
def _power_mod_phi(n: int, k: int) -> tuple[int, ...]:
    """Integer coordinates of x^k modulo the n-th cyclotomic polynomial,
    reduced from degree k down in one loop: k - phi(n) can exceed the
    recursion limit at conductors far below the cap."""
    phi = euler_phi(n)
    row = [0] * max(k + 1, phi)
    row[k] = 1
    for d in range(k, phi - 1, -1):
        c = row[d]
        if c:
            for i, e in _phi_tail(n):
                row[d - phi + i] -= c * e
    return tuple(row[:phi])


@lru_cache(maxsize=None)
def _power_terms(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (index, coefficient) pairs of x^k modulo Phi_n."""
    return tuple((j, e) for j, e in enumerate(_power_mod_phi(n, k)) if e)


def _normalize_conductor(n: int) -> int:
    if n == 2:
        return 1
    if n % 4 == 2:
        return n // 2
    return n


def _make(conductor: int, num, den: int) -> "CycNum":
    """The normalizing constructor: den > 0 and gcd(den, *num) == 1."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        return CycNum(conductor, tuple(x // g for x in num), den // g)
    return CycNum(conductor, tuple(num), den)


class CycNum:
    """An element of Q(zeta_N) in the power basis modulo Phi_N."""

    __slots__ = ("conductor", "num", "den", "_reduced")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        # Internal constructor: conductor must already be normalized, num
        # must have length phi(conductor), den > 0 and gcd(den, *num) == 1.
        # _make() establishes the last two.
        self.conductor = conductor
        self.num = num
        self.den = den
        self._reduced: CycNum | None = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates (a read-only view)."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @staticmethod
    def from_rat(value: Fraction | int) -> "CycNum":
        if type(value) is int:
            return CycNum(1, (value,), 1)
        value = Fraction(value)
        return CycNum(1, (value.numerator,), value.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycNum":
        """The k-th power of a primitive n-th root of unity."""
        if n < 1:
            raise InvalidParameter(f"root of unity of order {n}")
        k %= n
        if n % 4 == 2:
            # zeta_2m = -zeta_m^((m+1)/2) for odd m
            m = n // 2
            sign = -1 if k % 2 else 1
            return CycNum.zeta(m, (k * ((m + 1) // 2)) % m) * sign
        if n == 1:
            return CycNum.from_rat(1)
        if n > conductor_cap():
            raise ConductorOverflow(f"conductor {n} exceeds cap {conductor_cap()}")
        # a root of unity is a unit of Z[zeta_n], so its content is 1
        return CycNum(n, _power_mod_phi(n, k), 1)

    @staticmethod
    def zero() -> "CycNum":
        return CycNum.from_rat(0)

    @staticmethod
    def one() -> "CycNum":
        return CycNum.from_rat(1)

    # -- conversions -------------------------------------------------

    def to_conductor(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m); the current conductor must divide m."""
        m = _normalize_conductor(m)
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise InvalidParameter(f"cannot embed conductor {n} into {m}")
        if m > conductor_cap():
            raise ConductorOverflow(f"conductor {m} exceeds cap {conductor_cap()}")
        out = [0] * euler_phi(m)
        step = m // n
        for i, c in enumerate(self.num):
            if c:
                for j, e in _power_terms(m, i * step):
                    out[j] += c * e
        # Z[zeta_n] is a direct summand of Z[zeta_m], so the content stays 1.
        return CycNum(m, tuple(out), self.den)

    def reduced(self) -> "CycNum":
        """Equal value at the smallest possible conductor (canonical form)."""
        red = self._reduced
        if red is not None:
            return red
        num = self.num
        if self.conductor == 1:
            red = self
        elif not any(num[1:]):
            red = CycNum(1, (num[0],), self.den)
        else:
            red = _minimal_form(self)
        red._reduced = red
        self._reduced = red
        return red

    def as_rat(self) -> Fraction:
        red = self.reduced()
        if red.conductor != 1:
            raise InvalidParameter(f"{self} is not rational")
        return Fraction(red.num[0], red.den)

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycNum":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum.from_rat(value)
        return NotImplemented  # type: ignore[return-value]

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.to_conductor(m), other.to_conductor(m)

    def _scale(self, p: int, q: int) -> "CycNum":
        """self * p / q for integers p and q > 0, at self's conductor."""
        if q == 1 and p == 1:
            return self
        if not p:
            return CycNum(self.conductor, (0,) * len(self.num), 1)
        return _make(self.conductor, [x * p for x in self.num], self.den * q)

    def _shift(self, p: int, q: int) -> "CycNum":
        """self + p / q for integers p and q > 0, at self's conductor."""
        if not p:
            return self
        num = list(self.num)
        da = self.den
        if da == q:
            num[0] += p
            return _make(self.conductor, num, da)
        g = gcd(da, q)
        fa = q // g
        num = [x * fa for x in num]
        num[0] += p * (da // g)
        return _make(self.conductor, num, da * fa)

    def __add__(self, other):
        if not isinstance(other, CycNum):
            other = CycNum._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor != other.conductor:
            if other.conductor == 1:
                return self._shift(other.num[0], other.den)
            if self.conductor == 1:
                return other._shift(self.num[0], self.den)
            self, other = self._common(other)
        da, db = self.den, other.den
        if da == db:
            return _make(self.conductor,
                         [x + y for x, y in zip(self.num, other.num)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(self.conductor,
                     [x * fa + y * fb for x, y in zip(self.num, other.num)],
                     da * fa)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            if type(other) is int:
                return self._scale(other, 1)
            other = CycNum._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.conductor == 1:
            return self._scale(other.num[0], other.den)
        if self.conductor == 1:
            return other._scale(self.num[0], self.den)
        a, b = self._common(other)
        n = a.conductor
        phi = len(a.num)
        prod = [0] * (2 * phi - 1)
        bnum = b.num
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(bnum):
                    if y:
                        prod[i + j] += x * y
        tail = _phi_tail(n)
        for k in range(2 * phi - 2, phi - 1, -1):
            c = prod[k]
            if c:
                base = k - phi
                for i, e in tail:
                    prod[base + i] -= c * e
        return _make(n, prod[:phi], a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """1 / self at the stored conductor N, computed at the minimal
        conductor c of self and embedded back at N.

        Let x be self at conductor c.  The automorphisms of Q(zeta_c) are
        zeta -> zeta^t for the units t mod c, so x times the product `conj`
        of its conjugates at t != 1 is the norm of x, a nonzero rational
        a/d; then 1/x is conj * d / a, on integer numerators throughout."""
        num = self.num
        if not any(num):
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        n = self.conductor
        if n == 1 or not any(num[1:]):
            out = [0] * len(num)
            out[0] = self.den if num[0] > 0 else -self.den
            return CycNum(n, tuple(out), abs(num[0]))
        x = self.reduced()
        c = x.conductor
        conj = CycNum.one()
        for t in range(2, c):
            if gcd(t, c) == 1:
                conj = conj * x.galois(t)
        norm = x * conj
        a, d = norm.num[0], norm.den
        inv = conj._scale(d, a) if a > 0 else conj._scale(-d, -a)
        return inv.to_conductor(n)

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- Galois ------------------------------------------------------

    def galois(self, t: int) -> "CycNum":
        """Field automorphism zeta -> zeta^t; t must be prime to the conductor."""
        n = self.conductor
        if n == 1:
            return self
        t %= n
        if gcd(t, n) != 1:
            raise InvalidParameter(f"galois exponent {t} not prime to {n}")
        out = [0] * len(self.num)
        for i, c in enumerate(self.num):
            if c:
                for j, e in _power_terms(n, (i * t) % n):
                    out[j] += c * e
        # an automorphism of Z[zeta_n] keeps the content at 1
        return CycNum(n, tuple(out), self.den)

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- comparisons and canonical form --------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycNum):
            other = CycNum._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor != other.conductor:
            if self.conductor == 1:
                self, other = other, self
            if other.conductor == 1:
                return (self.den == other.den and self.num[0] == other.num[0]
                        and not any(self.num[1:]))
            self, other = self._common(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        red = self.reduced()
        if red.conductor == 1:
            if red.den == 1:
                return hash(red.num[0])
            return hash(Fraction(red.num[0], red.den))
        return hash((red.conductor, red.num, red.den))

    def key(self) -> tuple:
        """Hashable canonical key (also usable as a sort key)."""
        red = self.reduced()
        return (red.conductor, red.num, red.den)

    def __str__(self) -> str:
        red = self.reduced()
        if red.conductor == 1:
            return str(Fraction(red.num[0], red.den))
        num, den = red.num, red.den
        parts: list[str] = []
        for k in range(len(num) - 1, -1, -1):
            if not num[k]:
                continue
            c = Fraction(num[k], den)
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                z = f"z{red.conductor}" + (f"^{k}" if k > 1 else "")
                body = z if mag == 1 else f"{mag}*{z}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"CycNum({self})"


def _restrict(x: CycNum, p: int) -> CycNum | None:
    """x at conductor N/p (normalized), or None when x is not in that field.

    Let q be the power of the prime p in N.  When q >= p^2 and q != 4,
    Phi_N(X) = Phi_(N/p)(X^p), so the power basis of Q(zeta_N) is the basis
    of Q(zeta_(N/p)) times 1, zeta, ..., zeta^(p-1): x lies in the subfield
    exactly when its numerators vanish off the multiples of p.  Otherwise
    the target is m = N/q, and Q(zeta_N) = Q(zeta_m) (x) Q(zeta_q) for the
    coprime m and q, with zeta_N^j = zeta_m^a zeta_q^b for a = j/q mod m and
    b = j/m mod q (the embedding sends zeta_m to zeta_N^q).  In the product
    of the two power bases x lies in Q(zeta_m) exactly when every component
    at a basis power zeta_q^u with u >= 1 is zero.
    """
    n = x.conductor
    q = p
    while n % (q * p) == 0:
        q *= p
    if q >= p * p and q != 4:
        num = x.num
        if any(any(num[r::p]) for r in range(1, p)):
            return None
        return CycNum(n // p, num[::p], x.den)
    m = n // q
    qi, mi = pow(q, -1, m), pow(m, -1, q)
    phi_m = euler_phi(m)
    comps = [0] * (phi_m * euler_phi(q))
    for j, c in enumerate(x.num):
        if c:
            for s, e in _power_terms(m, j * qi % m):
                for u, f in _power_terms(q, j * mi % q):
                    comps[u * phi_m + s] += c * e * f
    if any(comps[phi_m:]):
        return None
    return _make(m, comps[:phi_m], x.den)


def _minimal_form(x: CycNum) -> CycNum:
    """x at its minimal conductor.  Q(zeta_a) and Q(zeta_b) meet in
    Q(zeta_gcd(a, b)), so the conductors whose field contains x are closed
    under gcd; while x is above the minimal one it therefore lies in
    Q(zeta_(N/p)) for some prime p | N, and stepping down one prime at a
    time through `_restrict` reaches it."""
    while True:
        n = x.conductor
        for p in _prime_factors(n):
            y = _restrict(x, p)
            if y is not None:
                x = y
                break
        else:
            return x


# -- reduction modulo a prime --------------------------------------------


class ModularImage:
    """The ring map from the cyclotomic integers of conductor dividing N,
    with denominators prime to p, onto F_p: zeta_N goes to a primitive N-th
    root of unity omega mod p, for the least prime p = 1 (mod N) above a
    given bound.  Complex conjugation is zeta -> zeta^-1, so the conjugate
    of x maps to x evaluated at omega^-1.

    An integer value whose range [0, p) is known is recovered exactly from
    its residue; this is J. D. Dixon's way of computing with characters
    ("High speed computation of group characters", Numer. Math. 10, 1967).
    A denominator that vanishes mod p raises CertificateFailure.
    """

    __slots__ = ("conductor", "p", "omega", "_powers")

    def __init__(self, conductor: int, above: int):
        conductor = _normalize_conductor(conductor)
        p = -(-above // conductor) * conductor + 1
        while not _is_prime(p):
            p += conductor
        self.conductor = conductor
        self.p = p
        self.omega = next(
            w for w in (pow(a, (p - 1) // conductor, p) for a in range(1, p))
            if all(pow(w, conductor // q, p) != 1
                   for q in _prime_factors(conductor)))
        self._powers: dict[tuple[int, bool], tuple[int, ...]] = {}

    def inverse(self, a: int) -> int:
        """The inverse of the integer a mod p."""
        if a % self.p == 0:
            raise CertificateFailure(f"{a} is not invertible mod {self.p}")
        return pow(a, -1, self.p)

    def __call__(self, x: CycNum, conjugate: bool = False) -> int:
        """The residue of x (or of its complex conjugate) mod p."""
        key = (x.conductor, conjugate)
        powers = self._powers.get(key)
        if powers is None:
            if self.conductor % x.conductor:
                raise InvalidParameter(
                    f"conductor {x.conductor} does not divide {self.conductor}")
            step = self.conductor // x.conductor
            root = pow(self.omega, -step if conjugate else step, self.p)
            powers = tuple(pow(root, i, self.p) for i in range(len(x.num)))
            self._powers[key] = powers
        total = sum(c * w for c, w in zip(x.num, powers) if c)
        return total * self.inverse(x.den) % self.p


# -- literal grammar ---------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?:(?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*)?)?"
    r"(?:z(?P<cond>\d+)(?:\^(?P<exp>\d+))?)?"
)


def parse_cyc(text: str) -> CycNum:
    """Parse the literal grammar: a rational, or signed sums of rat*zN^k terms."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidParameter("empty cyclotomic literal")
    pos = 0
    total = CycNum.zero()
    first = True
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        sign = 1
        if text[pos] in "+-":
            if first and text[pos] == "+":
                raise InvalidParameter(f"bad cyclotomic literal at offset {pos}: {text!r}")
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        elif not first:
            raise InvalidParameter(f"expected + or - at offset {pos}: {text!r}")
        match = _TERM_RE.match(text, pos)
        if not match or (match.group("coef") is None and match.group("cond") is None):
            raise InvalidParameter(f"bad cyclotomic literal at offset {pos}: {text!r}")
        try:
            coef = Fraction(match.group("coef")) if match.group("coef") else 1
        except ZeroDivisionError:
            raise InvalidParameter(
                f"zero denominator at offset {pos}: {text!r}") from None
        if match.group("cond") is not None:
            n = int(match.group("cond"))
            if n < 1:
                raise InvalidParameter(f"bad conductor at offset {pos}: {text!r}")
            k = int(match.group("exp")) if match.group("exp") else 1
            term = CycNum.zeta(n, k) * coef
        else:
            term = CycNum.from_rat(coef)
        total = total + term * sign
        pos = match.end()
        first = False
    return total
