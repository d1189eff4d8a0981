"""Irreducible representations, characters, and power-character calculus.

Irreducible representations are never computed from scratch: the builtin
families carry hand-pinned tables, and user-supplied groups must provide
generator images which are extended along the stored generator words and
then verified (multiplicativity, character orthonormality, sum of squared
dimensions).

Conventions used throughout the package:
  * coordinates x_1..x_{n+1} span the dual of the defining representation,
    and the action on polynomial functions is (g.f)(v) = f(g^-1 v);
  * dim Hom(O(a) tensor rho, O(b) tensor sigma)
        = <chi_{Sym^(b-a) V-dual} * chi_sigma, chi_rho>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from .cyclotomic import CycNum
from .errors import GroupMismatch, InvalidParameter, NegativeDegree
from .groups import (
    CentralSubgroupInfo,
    FiniteMatrixGroup,
    central_scalar_subgroup,
    generate_group,
)
from .linalg import CycMatrix


class CharacterVec:
    """A class function, one cyclotomic value per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteMatrixGroup, values):
        values = tuple(v if isinstance(v, CycNum) else CycNum.from_rat(v)
                       for v in values)
        if len(values) != len(group.classes):
            raise InvalidParameter("one value per conjugacy class required")
        self.group = group
        self.values = values

    @staticmethod
    def trivial(group: FiniteMatrixGroup) -> "CharacterVec":
        return CharacterVec(group, [CycNum.one()] * len(group.classes))

    @staticmethod
    def zero(group: FiniteMatrixGroup) -> "CharacterVec":
        return CharacterVec(group, [CycNum.zero()] * len(group.classes))

    def dim(self) -> CycNum:
        return self.values[0]

    def _check(self, other: "CharacterVec"):
        if self.group is not other.group:
            raise GroupMismatch("characters over different groups")

    def __add__(self, other: "CharacterVec") -> "CharacterVec":
        self._check(other)
        return CharacterVec(self.group,
                            [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "CharacterVec") -> "CharacterVec":
        self._check(other)
        return CharacterVec(self.group,
                            [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "CharacterVec":
        return CharacterVec(self.group, [-v for v in self.values])

    def __mul__(self, other):
        if isinstance(other, CharacterVec):
            self._check(other)
            return CharacterVec(self.group,
                                [a * b for a, b in zip(self.values, other.values)])
        return CharacterVec(self.group, [v * other for v in self.values])

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharacterVec):
            return NotImplemented
        return self.group is other.group and self.values == other.values

    def __hash__(self) -> int:
        return hash(tuple(v.key() for v in self.values))

    def dual(self) -> "CharacterVec":
        """Character of the dual representation: chi(g) -> chi(g^-1)."""
        group = self.group
        return CharacterVec(
            group,
            [self.values[group.class_power(c, -1)] for c in range(len(self.values))],
        )

    def power_map(self, k: int) -> "CharacterVec":
        """The class function g -> chi(g^k)."""
        group = self.group
        return CharacterVec(
            group,
            [self.values[group.class_power(c, k)] for c in range(len(self.values))],
        )

    def inner(self, other: "CharacterVec") -> Fraction:
        """(1/|G|) sum over classes of |class| * chi1 * conj(chi2)."""
        self._check(other)
        group = self.group
        total = CycNum.zero()
        for c, (a, b) in enumerate(zip(self.values, other.values)):
            if a and b:
                total = total + a * b.conjugate() * group.class_size(c)
        return (total * Fraction(1, group.order)).as_rat()

    def inner_int(self, other: "CharacterVec") -> int:
        value = self.inner(other)
        if value.denominator != 1:
            raise InvalidParameter(f"inner product {value} is not an integer")
        return int(value)

    def __repr__(self) -> str:
        return "CharacterVec[" + ", ".join(str(v) for v in self.values) + "]"


class Irrep:
    """An irreducible representation given by one matrix per group element."""

    __slots__ = ("group", "index", "name", "matrices", "_character")

    def __init__(self, group: FiniteMatrixGroup, index: int, name: str,
                 matrices: list[CycMatrix]):
        if len(matrices) != group.order:
            raise InvalidParameter("one matrix per group element required")
        self.group = group
        self.index = index
        self.name = name
        self.matrices = tuple(matrices)
        self._character: CharacterVec | None = None

    @property
    def dim(self) -> int:
        return self.matrices[0].nrows

    def matrix(self, i: int) -> CycMatrix:
        return self.matrices[i]

    def character(self) -> CharacterVec:
        if self._character is None:
            group = self.group
            self._character = CharacterVec(
                group,
                [self.matrices[group.class_representative(c)].trace()
                 for c in range(len(group.classes))],
            )
        return self._character

    def __repr__(self) -> str:
        return f"Irrep({self.name}, dim={self.dim})"


def irrep_from_images(group: FiniteMatrixGroup, index: int, name: str,
                      images: list[CycMatrix]) -> Irrep:
    """Extend generator images along the stored generator words.

    Multiplicativity is checked against every (element, generator) pair,
    which by induction on word length pins the whole multiplication table.
    """
    if len(images) != len(group.generators):
        raise InvalidParameter("one image per generator required")
    dim = images[0].nrows if images else 1
    for img in images:
        if img.nrows != img.ncols or img.nrows != dim:
            raise InvalidParameter("irrep images must be square of equal size")
    matrices = []
    for word in group.words:
        m = CycMatrix.identity(dim)
        for gi in word:
            m = m * images[gi]
        matrices.append(m)
    gen_indices = [group.index_of(g) for g in group.generators]
    for i in range(group.order):
        for gi, s in enumerate(gen_indices):
            if matrices[group.mul(i, s)] != matrices[i] * images[gi]:
                raise InvalidParameter(
                    f"generator images for {name} are not multiplicative")
    return Irrep(group, index, name, matrices)


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    failure: str | None
    dim_square_sum: int


def verify_irreps(group: FiniteMatrixGroup, irreps: list[Irrep]) -> VerifyReport:
    """Check a claimed irrep table; reports rather than throws."""
    dim_sq = sum(r.dim ** 2 for r in irreps)

    def fail(msg: str) -> VerifyReport:
        return VerifyReport(False, msg, dim_sq)

    if not irreps:
        return fail("empty irrep table")
    first = irreps[0]
    if first.dim != 1 or any(not m.is_identity() for m in first.matrices):
        return fail("first irrep is not the trivial representation")
    gen_indices = [group.index_of(g) for g in group.generators]
    for rep in irreps:
        if rep.group is not group:
            return fail(f"{rep.name} belongs to a different group")
        if not rep.matrices[0].is_identity():
            return fail(f"{rep.name} does not send the identity to the identity")
        for i in range(group.order):
            for s in gen_indices:
                if rep.matrices[group.mul(i, s)] != rep.matrices[i] * rep.matrices[s]:
                    return fail(f"{rep.name} is not multiplicative at ({i}, {s})")
        traces = [m.trace() for m in rep.matrices]
        for c, orbit in enumerate(group.classes):
            if any(traces[i] != traces[orbit[0]] for i in orbit):
                return fail(f"character of {rep.name} is not constant on class {c}")
    for a in range(len(irreps)):
        for b in range(a, len(irreps)):
            expect = Fraction(1 if a == b else 0)
            got = irreps[a].character().inner(irreps[b].character())
            if got != expect:
                return fail(
                    f"<{irreps[a].name}, {irreps[b].name}> = {got}, expected {expect}")
    if dim_sq != group.order:
        return fail(f"dimension squares sum to {dim_sq}, group order is {group.order}")
    return VerifyReport(True, None, dim_sq)


def sym_power_character(chi: CharacterVec, m: int) -> CharacterVec:
    """Character of the m-th symmetric power, by the Newton-style recursion
    h_m(g) = (1/m) * sum_{k=1..m} chi(g^k) h_{m-k}(g)."""
    if m < 0:
        raise NegativeDegree(f"symmetric power of negative degree {m}")
    return _newton_power(chi, m, alternating=False)


def ext_power_character(chi: CharacterVec, k: int) -> CharacterVec:
    """Character of the k-th exterior power, by the dual recursion
    e_k(g) = (1/k) * sum_{i=1..k} (-1)^(i-1) chi(g^i) e_{k-i}(g)."""
    if k < 0:
        raise NegativeDegree(f"exterior power of negative degree {k}")
    return _newton_power(chi, k, alternating=True)


def _newton_power(chi: CharacterVec, m: int, alternating: bool) -> CharacterVec:
    group = chi.group
    out = [CharacterVec.trivial(group)]
    powers = [None] + [chi.power_map(k) for k in range(1, m + 1)]
    for degree in range(1, m + 1):
        total = CharacterVec.zero(group)
        for k in range(1, degree + 1):
            term = powers[k] * out[degree - k]
            total = total - term if alternating and k % 2 == 0 else total + term
        out.append(total * Fraction(1, degree))
    return out[m]


def molien_dimension(setup: "Setup", m: int) -> int:
    """dim (Sym^m V-dual)^G: invariant polynomial functions of degree m."""
    return setup.sym_dual(m).inner_int(setup.trivial)


def setup_memo(fn):
    """Memoize fn(setup, *args) in the setup's cache, keyed by fn and args.

    This is the one cache on a Setup: its own character data and the
    morphism spaces and reductions of downstream modules all go through it,
    so those modules stay stateless.
    """
    @wraps(fn)
    def cached(setup: "Setup", *args):
        key = (fn, *args)
        if key not in setup._cache:
            setup._cache[key] = fn(setup, *args)
        return setup._cache[key]
    return cached


class Setup:
    """A finite matrix group acting on projective space plus its irrep table.

    The group dimension is n + 1; projective space has dimension n.
    """

    def __init__(self, group: FiniteMatrixGroup, irreps: list[Irrep],
                 check: bool = True):
        if check:
            report = verify_irreps(group, irreps)
            if not report.passed:
                raise InvalidParameter(f"irrep table rejected: {report.failure}")
        self.group = group
        self.irreps = tuple(irreps)
        self.trivial = CharacterVec.trivial(group)
        self._cache: dict = {}

    @property
    def n_plus_1(self) -> int:
        return self.group.dimension

    @property
    def n(self) -> int:
        return self.group.dimension - 1

    @property
    def r_plus_1(self) -> int:
        return len(self.irreps)

    def defining_character(self) -> CharacterVec:
        group = self.group
        return CharacterVec(
            group,
            [group.elements[group.class_representative(c)].trace()
             for c in range(len(group.classes))],
        )

    @setup_memo
    def sym_dual(self, m: int) -> CharacterVec:
        """chi of Sym^m V-dual, the degree-m polynomial functions."""
        return sym_power_character(self.defining_character().dual(), m)

    def sym(self, m: int) -> CharacterVec:
        return sym_power_character(self.defining_character(), m)

    def ext(self, k: int) -> CharacterVec:
        return ext_power_character(self.defining_character(), k)

    def ext_dual(self, k: int) -> CharacterVec:
        return ext_power_character(self.defining_character().dual(), k)

    def det_character(self) -> CharacterVec:
        return self.ext(self.n_plus_1)

    def det_trivial(self) -> bool:
        """True when every element has determinant 1 (the group is in SL)."""
        one = CycNum.one()
        return all(v == one for v in self.det_character().values)

    def hom_dim(self, a: int, b: int, rho: int, sigma: int) -> int:
        """dim Hom(O(a) tensor rho, O(b) tensor sigma); zero when b < a."""
        m = b - a
        return self._multiplicity(m, rho, sigma) if m >= 0 else 0

    @setup_memo
    def _multiplicity(self, m: int, rho: int, sigma: int) -> int:
        chi = self.sym_dual(m) * self.irreps[sigma].character()
        return chi.inner_int(self.irreps[rho].character())

    @setup_memo
    def central_scalars(self, d: int) -> CentralSubgroupInfo:
        return central_scalar_subgroup(self.group, d)

    def irrep_scalar_weight(self, j: int, info: CentralSubgroupInfo) -> int:
        """The exponent c with rho_j(zeta*Id) = zeta^c * Id for the canonical
        generator zeta of the scalar subgroup."""
        if info.e == 1:
            return 0
        image = self.irreps[j].matrix(info.generator_index)
        if not image.is_scalar():
            raise InvalidParameter(f"central image of {self.irreps[j].name} not scalar")
        lam = image.rows[0][0]
        for c in range(info.e):
            if info.generator ** c == lam:
                return c
        raise InvalidParameter("central image is not a power of the generator")

    def __repr__(self) -> str:
        return (f"Setup(|G|={self.group.order}, n+1={self.n_plus_1}, "
                f"irreps={len(self.irreps)})")


# -- builtin families ---------------------------------------------------

def cyclic_diagonal(m: int, weights: list[int]) -> Setup:
    """Cyclic group generated by diag(zeta_m^w_1, ..., zeta_m^w_k).

    The generator must have order exactly m so that the m advertised
    one-dimensional characters really are the full irrep table.
    """
    if m < 1:
        raise InvalidParameter(f"cyclic order {m} must be positive")
    if not weights:
        raise InvalidParameter("weights must be non-empty")
    if m == 1:
        group = generate_group([], dimension=len(weights))
        return Setup(group, [Irrep(group, 0, "rho_0", [CycMatrix.identity(1)])])
    gen = CycMatrix.diagonal([CycNum.zeta(m, w % m) for w in weights])
    order = next((k for k in range(1, m + 1) if (gen ** k).is_identity()), None)
    if order != m:
        raise InvalidParameter(
            f"diagonal generator has order {order}, expected exactly {m}")
    group = generate_group([gen])
    # discrete logs: element index -> exponent t with element = gen^t
    logs = [0] * group.order
    power = CycMatrix.identity(len(weights))
    for t in range(m):
        logs[group.index_of(power)] = t
        power = power * gen
    irreps = []
    for j in range(m):
        mats = [CycMatrix([[CycNum.zeta(m, (j * logs[i]) % m)]])
                for i in range(group.order)]
        irreps.append(Irrep(group, j, f"rho_{j}", mats))
    setup = Setup(group, irreps)
    return setup


def binary_dihedral(l: int) -> Setup:
    """The order-4l group generated by diag(zeta_2l, zeta_2l^-1) and the
    rotation [[0,1],[-1,0]], with its standard irrep table attached."""
    if l < 1:
        raise InvalidParameter(f"binary dihedral parameter {l} must be positive")
    za = CycNum.zeta(2 * l)
    a = CycMatrix.diagonal([za, za ** -1])
    b = CycMatrix([[0, 1], [-1, 0]])
    group = generate_group([a, b])
    if group.order != 4 * l:
        raise InvalidParameter(f"closure has order {group.order}, expected {4 * l}")
    one = CycNum.one()
    beta = one if l % 2 == 0 else CycNum.zeta(4)
    images: list[tuple[str, list[CycMatrix]]] = [
        ("rho_0", [CycMatrix([[one]]), CycMatrix([[one]])]),
        ("rho_1", [CycMatrix([[one]]), CycMatrix([[-one]])]),
    ]
    for h in range(1, l):
        images.append((
            f"rho_{1 + h}",
            [CycMatrix.diagonal([za ** h, za ** -h]),
             CycMatrix([[0, 1], [(-1) ** h, 0]])],
        ))
    images.append((f"rho_{l + 1}", [CycMatrix([[-one]]), CycMatrix([[beta]])]))
    images.append((f"rho_{l + 2}", [CycMatrix([[-one]]), CycMatrix([[-beta]])]))
    irreps = [irrep_from_images(group, j, name, imgs)
              for j, (name, imgs) in enumerate(images)]
    return Setup(group, irreps)
