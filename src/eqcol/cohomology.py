"""Cohomology of equivariant line bundles on projective space, with the
K-theoretic bookkeeping: Koszul reduction to the twist window 0..n and
the Euler pairing.

Line bundle cohomology on P^n is concentrated in degree 0 (twist >= 0,
giving Sym^m of the coordinate functions) or degree n (twist <= -n-1,
giving Sym^(-m-n-1) of the coordinates themselves times the determinant
of the defining representation).  The determinant twist convention is
self-verified by the Koszul alternating-sum test: the wrong dual breaks
it for every group that is not self-dual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter
from .reps import CharacterVec, Setup, setup_memo, sym_power_character


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


@setup_memo
def ext_character(setup: Setup, m: int, k: int) -> CharacterVec:
    """Character of Ext^k(O, O(m)) = H^k(P^n, O(m)) as a G-module."""
    n = setup.n
    if k == 0 and m >= 0:
        return setup.sym_dual(m)
    if k == n and m <= -n - 1:
        return sym_power_character(setup.defining_character(), -m - n - 1) \
            * setup.det_character()
    return CharacterVec.zero(setup.group)


def ext_dim_equivariant(setup: Setup, source: EqLineBundle,
                        target: EqLineBundle, k: int) -> int:
    """dim Ext^k(O(i1) tensor rho, O(i2) tensor sigma) in coh^G."""
    chi = ext_character(setup, target.twist - source.twist, k)
    chi = chi * setup.irreps[target.irrep].character()
    return chi.inner_int(setup.irreps[source.irrep].character())


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
    """Integer vector over the basis [O(i) tensor rho_j], 0<=i<=n, 0<=j<=r."""

    __slots__ = ("setup", "coeffs")

    def __init__(self, setup: Setup, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != setup.n_plus_1 * setup.r_plus_1:
            raise InvalidParameter("K-class length mismatch")
        self.setup = setup
        self.coeffs = coeffs

    @staticmethod
    def zero(setup: Setup) -> "KClass":
        return KClass(setup, [0] * (setup.n_plus_1 * setup.r_plus_1))

    @staticmethod
    def basis(setup: Setup, twist: int, irrep: int) -> "KClass":
        coeffs = [0] * (setup.n_plus_1 * setup.r_plus_1)
        coeffs[KClass.index(setup, twist, irrep)] = 1
        return KClass(setup, coeffs)

    @staticmethod
    def index(setup: Setup, twist: int, irrep: int) -> int:
        if not (0 <= twist <= setup.n and 0 <= irrep < setup.r_plus_1):
            raise InvalidParameter(f"({twist}, {irrep}) outside the basis window")
        return twist * setup.r_plus_1 + irrep

    def coefficient(self, twist: int, irrep: int) -> int:
        return self.coeffs[KClass.index(self.setup, twist, irrep)]

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.setup, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(self.setup, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "KClass":
        return KClass(self.setup, [-a for a in self.coeffs])

    def __mul__(self, scalar: int) -> "KClass":
        return KClass(self.setup, [a * scalar for a in self.coeffs])

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


def _decompose(setup: Setup, chi: CharacterVec) -> list[tuple[int, int]]:
    """Multiplicities of each irrep inside a genuine character."""
    out = []
    for j, rep in enumerate(setup.irreps):
        mult = chi.inner_int(rep.character())
        if mult:
            out.append((j, mult))
    return out


@setup_memo
def _reduce_bundle(setup: Setup, m: int, j: int) -> KClass:
    """K-class of O(m) tensor rho_j, reduced into the twist window 0..n.

    Uses the Koszul relation
        sum_{k=0}^{n+1} (-1)^k [Lambda^k V-dual tensor O(m-k)] = 0
    recursively downward for m > n and upward for m < 0.
    """
    n = setup.n
    if 0 <= m <= n:
        result = KClass.basis(setup, m, j)
    elif m > n:
        result = KClass.zero(setup)
        chi_j = setup.irreps[j].character()
        for k in range(1, n + 2):
            sign = 1 if k % 2 == 1 else -1
            chi = setup.ext_dual(k) * chi_j
            for l, mult in _decompose(setup, chi):
                result = result + _reduce_bundle(setup, m - k, l) * (sign * mult)
    else:
        result = KClass.zero(setup)
        det = setup.det_character()
        chi_j = setup.irreps[j].character()
        outer_sign = 1 if n % 2 == 0 else -1
        for k in range(0, n + 1):
            sign = outer_sign * (1 if k % 2 == 0 else -1)
            chi = det * setup.ext_dual(k) * chi_j
            for l, mult in _decompose(setup, chi):
                result = result + _reduce_bundle(setup, m + n + 1 - k, l) * (sign * mult)
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
