"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a coordinate vector over the power basis
1, z, ..., z^(phi(N)-1) taken modulo the N-th cyclotomic polynomial,
with arbitrary-precision rational coefficients.  No floating point is
used anywhere.  Conductors are normalized so that N is never congruent
to 2 mod 4 (Q(zeta_2m) = Q(zeta_m) for odd m), which makes the minimal
conductor of a value unique.

Division by zero raises the built-in ZeroDivisionError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .config import CONDUCTOR_CAP
from .errors import ConductorOverflow, InvalidParameter

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    if n <= 0:
        raise InvalidParameter(f"totient of non-positive {n}")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by exact division of x^n - 1 by the cyclotomic polynomials
    of the proper divisors of n.  Monic with integer coefficients.
    """
    if n < 1:
        raise InvalidParameter(f"cyclotomic polynomial of {n}")
    if n > CONDUCTOR_CAP:
        raise ConductorOverflow(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
    poly = [_ZERO] * (n + 1)
    poly[0], poly[n] = Fraction(-1), _ONE
    for d in divisors(n)[:-1]:
        poly, rem = _poly_divmod(poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
        if any(rem):
            raise InvalidParameter("inexact polynomial division")
    coeffs = []
    for c in poly:
        if c.denominator != 1:
            raise InvalidParameter("cyclotomic polynomial is not integral")
        coeffs.append(int(c))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _power_mod_phi(n: int, k: int) -> tuple[int, ...]:
    """Integer coordinates of x^k modulo the n-th cyclotomic polynomial."""
    phi = euler_phi(n)
    if k < phi:
        row = [0] * phi
        row[k] = 1
        return tuple(row)
    prev = _power_mod_phi(n, k - 1)
    shifted = [0] + list(prev[:-1])
    top = prev[-1]
    if top:
        cyc = cyclotomic_polynomial(n)
        for i in range(phi):
            shifted[i] -= top * cyc[i]
    return tuple(shifted)


def _normalize_conductor(n: int) -> int:
    if n == 2:
        return 1
    if n % 4 == 2:
        return n // 2
    return n


class CycNum:
    """An element of Q(zeta_N) in the power basis modulo Phi_N."""

    __slots__ = ("conductor", "coeffs", "_reduced")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        # Internal constructor: conductor must already be normalized and
        # coeffs must have length phi(conductor).
        self.conductor = conductor
        self.coeffs = coeffs
        self._reduced: CycNum | None = None

    @staticmethod
    def from_rat(value: Fraction | int) -> "CycNum":
        return CycNum(1, (Fraction(value),))

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
        if n > CONDUCTOR_CAP:
            raise ConductorOverflow(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
        row = _power_mod_phi(n, k)
        return CycNum(n, tuple(Fraction(c) for c in row))

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
        if m > CONDUCTOR_CAP:
            raise ConductorOverflow(f"conductor {m} exceeds cap {CONDUCTOR_CAP}")
        step = m // n
        out = [_ZERO] * euler_phi(m)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, e in enumerate(_power_mod_phi(m, i * step)):
                if e:
                    out[j] += c * e
        return CycNum(m, tuple(out))

    def reduced(self) -> "CycNum":
        """Equal value at the smallest possible conductor (canonical form)."""
        if self._reduced is not None:
            return self._reduced
        n = self.conductor
        if n == 1:
            self._reduced = self
            return self
        for cand in divisors(n):
            if cand % 4 == 2 or cand == n:
                continue
            coords = _subfield_coordinates(n, cand, self.coeffs)
            if coords is not None:
                red = CycNum(cand, coords)
                red._reduced = red
                self._reduced = red
                return red
        self._reduced = self
        return self

    def is_rational(self) -> bool:
        return self.reduced().conductor == 1

    def as_rat(self) -> Fraction:
        red = self.reduced()
        if red.conductor != 1:
            raise InvalidParameter(f"{self} is not rational")
        return red.coeffs[0]

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

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return CycNum(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, tuple(-x for x in self.coeffs))

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
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        n = a.conductor
        if n == 1:
            return CycNum(1, (a.coeffs[0] * b.coeffs[0],))
        phi = len(a.coeffs)
        prod = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        out = list(prod[:phi])
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if not c:
                continue
            for j, e in enumerate(_power_mod_phi(n, k)):
                if e:
                    out[j] += c * e
        return CycNum(n, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise ZeroDivisionError("division by zero in a cyclotomic field")
        n = self.conductor
        if n == 1:
            return CycNum(1, (1 / self.coeffs[0],))
        # Extended Euclid against Phi_n, which is irreducible over Q.
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        unit = r1[0]
        inv = [c / unit for c in s1]
        out = [_ZERO] * len(self.coeffs)
        for k, c in enumerate(inv):
            if not c:
                continue
            for j, e in enumerate(_power_mod_phi(n, k)):
                if e:
                    out[j] += c * e
        return CycNum(n, tuple(out))

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
        out = [_ZERO] * len(self.coeffs)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, e in enumerate(_power_mod_phi(n, (i * t) % n)):
                if e:
                    out[j] += c * e
        return CycNum(n, tuple(out))

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- comparisons and canonical form --------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.reduced(), other.reduced()
        return a.conductor == b.conductor and a.coeffs == b.coeffs

    def __hash__(self) -> int:
        red = self.reduced()
        return hash((red.conductor, red.coeffs))

    def key(self) -> tuple:
        """Hashable canonical key (also usable as a sort key)."""
        red = self.reduced()
        return (red.conductor, red.coeffs)

    def __str__(self) -> str:
        red = self.reduced()
        if red.conductor == 1:
            return str(red.coeffs[0])
        parts: list[str] = []
        for k in range(len(red.coeffs) - 1, -1, -1):
            c = red.coeffs[k]
            if not c:
                continue
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


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [_ZERO], num
    quot = [_ZERO] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dn] = c
            for j, dj in enumerate(den):
                num[i - dn + j] -= c * dj
    return quot, num[:dn] if dn else [_ZERO]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    size = max(len(a), len(b))
    out = [_ZERO] * size
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


def _subfield_coordinates(n: int, c: int, coeffs: tuple[Fraction, ...]):
    """Coordinates of a conductor-n vector in the conductor-c subfield, or None."""
    phi_c = euler_phi(c)
    phi_n = len(coeffs)
    cols = [_power_mod_phi(n, j * (n // c)) for j in range(phi_c)]
    # Solve cols * a = coeffs by Gaussian elimination over Q.
    matrix = [[Fraction(cols[j][i]) for j in range(phi_c)] + [coeffs[i]] for i in range(phi_n)]
    rank = 0
    for col in range(phi_c):
        pivot = next((r for r in range(rank, phi_n) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(phi_n):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[rank])]
        rank += 1
    pivots = []
    for row in matrix[:rank]:
        lead = next(i for i, v in enumerate(row[:-1]) if v)
        pivots.append(lead)
    for row in matrix[rank:]:
        if row[-1]:
            return None
    coords = [_ZERO] * phi_c
    for lead, row in zip(pivots, matrix[:rank]):
        coords[lead] = row[-1]
    return tuple(coords)


# -- literal grammar ---------------------------------------------------

_RAT_RE = re.compile(r"\d+(?:/\d+)?")
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
        coef = Fraction(match.group("coef")) if match.group("coef") else _ONE
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
