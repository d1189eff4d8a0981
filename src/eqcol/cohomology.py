"""Cohomology of equivariant line bundles on projective space, with the
K-theoretic bookkeeping: Koszul reduction to the twist window 0..n and
the Euler pairing.

Line bundle cohomology on P^n is concentrated in degree 0 (twist >= 0,
giving Sym^m of the coordinate functions) or degree n (twist <= -n-1,
giving Sym^(-m-n-1) of the coordinates themselves times the determinant
of the defining representation).  The determinant twist convention is
self-verified by the Koszul alternating-sum test: the wrong dual breaks
it for every group that is not self-dual.

All dimensions here are integer work on the Setup's representation-ring
tables (Setup.sym_decomposition, Setup.lambda_table, Setup.det_twist);
only koszul_reduce of an arbitrary character decomposes it by inner
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from numbers import Rational
from operator import add, mul, neg, sub

from .errors import InvalidParameter
from .reps import CharacterVec, Setup, setup_memo


@dataclass(frozen=True)
class EqLineBundle:
    """O(twist) tensor rho_irrep."""

    twist: int
    irrep: int

    def label(self, setup: Setup) -> str:
        base = "O" if self.twist == 0 else f"O({self.twist})"
        return f"{base}@{setup.irreps[self.irrep].name}"

    def twisted(self, k: int) -> "EqLineBundle":
        return EqLineBundle(self.twist + k, self.irrep)


def ext_dim_equivariant(setup: Setup, source: EqLineBundle,
                        target: EqLineBundle, k: int) -> int:
    """dim Ext^k(O(i1) tensor rho, O(i2) tensor sigma) in coh^G.

    Degree 0 is the Hom dimension <Sym^m V-dual tensor sigma, rho>, m =
    i2 - i1.  Degree n is <Sym^j V tensor det tensor sigma, rho> with
    j = -m-n-1, which by duality is the multiplicity of det tensor sigma in
    Sym^j V-dual tensor rho.
    """
    m = target.twist - source.twist
    n = setup.n
    if k == 0 and m >= 0:
        return setup.hom_dim(0, m, source.irrep, target.irrep)
    if k == n and m <= -n - 1:
        return setup.sym_decomposition(-m - n - 1, source.irrep)[
            setup.det_twist(target.irrep)]
    return 0


def ext_table(setup: Setup, source: EqLineBundle,
              target: EqLineBundle) -> dict[int, int]:
    """All nonzero Ext dimensions between two line bundles."""
    out = {}
    for k in (0, setup.n):
        dim = ext_dim_equivariant(setup, source, target, k)
        if dim:
            out[k] = dim
    return out


class KClass:
    """Integer vector over the basis [O(i) tensor rho_j], 0<=i<=n, 0<=j<=r.

    The constructor and the scalar of `*` accept integers only: ints, or
    rationals with denominator 1.  Sums, differences, negations and
    multiples of classes are built through `_of`, which trusts its tuple."""

    __slots__ = ("setup", "coeffs")

    def __init__(self, setup: Setup, coeffs):
        coeffs = tuple(_integer(c, "coefficient") for c in coeffs)
        if len(coeffs) != setup.n_plus_1 * setup.r_plus_1:
            raise InvalidParameter("K-class length mismatch")
        self.setup = setup
        self.coeffs = coeffs

    @classmethod
    def _of(cls, setup: Setup, coeffs: tuple[int, ...]) -> "KClass":
        """A class from a tuple of ints of the right length, unchecked."""
        kc = object.__new__(cls)
        kc.setup = setup
        kc.coeffs = coeffs
        return kc

    @staticmethod
    def zero(setup: Setup) -> "KClass":
        return KClass._of(setup, (0,) * (setup.n_plus_1 * setup.r_plus_1))

    @staticmethod
    def basis(setup: Setup, twist: int, irrep: int) -> "KClass":
        coeffs = [0] * (setup.n_plus_1 * setup.r_plus_1)
        coeffs[KClass.index(setup, twist, irrep)] = 1
        return KClass._of(setup, tuple(coeffs))

    @staticmethod
    def index(setup: Setup, twist: int, irrep: int) -> int:
        if not (0 <= twist <= setup.n and 0 <= irrep < setup.r_plus_1):
            raise InvalidParameter(f"({twist}, {irrep}) outside the basis window")
        return twist * setup.r_plus_1 + irrep

    def coefficient(self, twist: int, irrep: int) -> int:
        return self.coeffs[KClass.index(self.setup, twist, irrep)]

    def __add__(self, other: "KClass") -> "KClass":
        return KClass._of(self.setup, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass._of(self.setup, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "KClass":
        return KClass._of(self.setup, tuple(map(neg, self.coeffs)))

    def __mul__(self, scalar) -> "KClass":
        k = _integer(scalar, "scalar")
        return KClass._of(self.setup, tuple(map(mul, self.coeffs, repeat(k))))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, KClass):
            return NotImplemented
        return self.setup is other.setup and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i in range(self.setup.n_plus_1):
            for j in range(self.setup.r_plus_1):
                c = self.coefficient(i, j)
                if c:
                    terms.append(f"{c:+d}[{EqLineBundle(i, j).label(self.setup)}]")
        return "KClass(" + (" ".join(terms) if terms else "0") + ")"


def _integer(value, what: str) -> int:
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Rational) and value.denominator == 1:
        return int(value)
    raise InvalidParameter(f"K-class {what} {value!r} is not an integer")


def _decompose(setup: Setup, chi: CharacterVec) -> list[tuple[int, int]]:
    """Multiplicities of each irrep inside a genuine character."""
    out = []
    for j, rep in enumerate(setup.irreps):
        mult = chi.inner_int(rep.character())
        if mult:
            out.append((j, mult))
    return out


@setup_memo
def _twist_rows(setup: Setup, below: bool) -> list[tuple[KClass, ...]]:
    """The reduced classes of the twists 0, 1, 2, ..., or of -1, -2, ...
    when below, one tuple over the irreps per twist, in that order.  The
    window's rows are its basis classes; _reduce_bundle extends the list."""
    if below:
        return []
    return [tuple(KClass.basis(setup, m, j) for j in range(setup.r_plus_1))
            for m in range(setup.n_plus_1)]


def _reduce_bundle(setup: Setup, m: int, j: int) -> KClass:
    """K-class of O(m) tensor rho_j, reduced into the twist window 0..n.

    Uses the Koszul relation
        sum_{k=0}^{n+1} (-1)^k [Lambda^k V-dual tensor O(m-k)] = 0
    downward for m > n and upward for m < 0, reading the decompositions
    from the tables L_k (and the det permutation upward).  The twists
    between the window and m are reduced first, in order, and kept, so
    each is reduced once and the call depth stays at two.
    """
    rows = _twist_rows(setup, m < 0)
    index = -m - 1 if m < 0 else m
    while len(rows) <= index:
        d = -1 - len(rows) if m < 0 else len(rows)
        rows.append(tuple(_koszul_step(setup, d, l) for l in range(setup.r_plus_1)))
    return rows[index][j]


def _koszul_step(setup: Setup, m: int, j: int) -> KClass:
    """O(m) tensor rho_j outside the window, from the n + 1 twists next to
    it on the window's side, which are already reduced."""
    n, result = setup.n, KClass.zero(setup)
    if m > n:
        for k in range(1, n + 2):
            sign = 1 if k % 2 == 1 else -1
            for l, mult in setup.lambda_table(k)[j]:
                result = result + _reduce_bundle(setup, m - k, l) * (sign * mult)
        return result
    outer_sign = 1 if n % 2 == 0 else -1
    for k in range(0, n + 1):
        sign = outer_sign * (1 if k % 2 == 0 else -1)
        row = setup.lambda_table(k)[j] if k else ((j, 1),)
        for l, mult in row:
            result = result + _reduce_bundle(
                setup, m + n + 1 - k, setup.det_twist(l)) * (sign * mult)
    return result


def koszul_reduce(setup: Setup, twist: int, irrep_or_character) -> KClass:
    """K-class of O(twist) tensor (irrep index or arbitrary character)."""
    if isinstance(irrep_or_character, int):
        return _reduce_bundle(setup, twist, irrep_or_character)
    result = KClass.zero(setup)
    for j, mult in _decompose(setup, irrep_or_character):
        result = result + _reduce_bundle(setup, twist, j) * mult
    return result


def line_bundle_class(setup: Setup, bundle: EqLineBundle) -> KClass:
    return _reduce_bundle(setup, bundle.twist, bundle.irrep)


def twist_kclass(kc: KClass, k: int) -> KClass:
    """K-class of (the object) tensor O(k), re-reduced into the window."""
    setup = kc.setup
    result = KClass.zero(setup)
    for i in range(setup.n_plus_1):
        for j in range(setup.r_plus_1):
            c = kc.coefficient(i, j)
            if c:
                result = result + _reduce_bundle(setup, i + k, j) * c
    return result


@setup_memo
def _basis_pairing(setup: Setup):
    """Euler pairing on basis classes: only degree 0 contributes within the
    window, so the matrix is the forward Hom-dimension table."""
    size = setup.n_plus_1 * setup.r_plus_1
    table = [[0] * size for _ in range(size)]
    for i1 in range(setup.n_plus_1):
        for j1 in range(setup.r_plus_1):
            for i2 in range(setup.n_plus_1):
                for j2 in range(setup.r_plus_1):
                    if i2 >= i1:
                        table[KClass.index(setup, i1, j1)][
                            KClass.index(setup, i2, j2)] = \
                            setup.hom_dim(i1, i2, j1, j2)
    return table


def euler_pairing(x: KClass, y: KClass) -> int:
    """chi(x, y) = sum_k (-1)^k dim Ext^k, extended bilinearly."""
    if x.setup is not y.setup:
        raise InvalidParameter("pairing of K-classes over different setups")
    table = _basis_pairing(x.setup)
    total = 0
    for a, xa in enumerate(x.coeffs):
        if xa:
            row = table[a]
            for b, yb in enumerate(y.coeffs):
                if yb:
                    total += xa * row[b] * yb
    return total
