"""Irreducible representations, characters, and power-character calculus.

Irreducible representations are never computed from scratch: the builtin
families carry hand-pinned generator images, and user-supplied groups must
provide them.  An irrep keeps one coordinate table: each element's matrix
in the flat form of `linalg.flatten` at the irrep's conductor N, the lcm
of its images' conductors, i.e. the power-basis numerators of its entries
over one common denominator.  That form is unique, so matrices are
compared as tuples.  The images are extended along the group's spanning
tree by one `RightMultiplier` per generator, X -> X A as a cached
Q-linear map on integer coordinates, and then verified once, when the
Setup is built: the identity, the generator images, multiplicativity on
the Schreier edges (the pairs off the tree), character orthonormality from
residues mod p, and the sum of squared dimensions.  A table that passes the
first three is a homomorphism, so its character is a class function and is
read at the class representatives.  A `CycMatrix` of an element is a view,
built on first use.

Multiplicities live in the integer representation ring.  Once per Setup,
on first use, the integer tables L_k (row sigma: the irrep decomposition of
Lambda^k V-dual tensor rho_sigma, k = 1..n+1) are computed by Dixon's
method modulo the prime of the orthonormality check, from the character
residues it took, with their dimensions as a certificate; the permutation
"tensor with det" is read off L_(n+1).  Every Sym^m multiplicity then
follows from the Koszul relation on integer vectors.  The CycNum character
path (Newton power characters, inner products) stays for decomposing
arbitrary characters.

Conventions used throughout the package:
  * coordinates x_1..x_{n+1} span the dual of the defining representation,
    and the action on polynomial functions is (g.f)(v) = f(g^-1 v);
  * dim Hom(O(a) tensor rho, O(b) tensor sigma)
        = <chi_{Sym^(b-a) V-dual} * chi_sigma, chi_rho>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from math import comb

from .cyclotomic import CycNum, ModularImage, common_conductor, euler_phi
from .errors import (CertificateFailure, GroupMismatch, InvalidParameter,
                     NegativeDegree)
from .groups import (
    CentralSubgroupInfo,
    FiniteMatrixGroup,
    central_scalar_subgroup,
    generate_group,
)
from .linalg import (CycMatrix, FlatMatrix, RightMultiplier, flat_identity,
                     flat_trace, unflatten)


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
    """An irreducible representation, as flat integer coordinates per group
    element.

    Internal: use irrep_from_images, which forms every element's flat form
    from the generator images along the group's spanning tree; verify_irreps
    relies on that to skip the tree edges.  `table[i]` is the flat form of
    rho(element i) at the irrep's conductor N, the lcm of its images'
    conductors, and `multipliers[g]` is right multiplication by the image of
    generator g.  `matrix(i)` is a `CycMatrix` view, built on first use.
    """

    __slots__ = ("group", "index", "name", "conductor", "dim", "multipliers",
                 "table", "_views", "_character")

    def __init__(self, group: FiniteMatrixGroup, index: int, name: str,
                 conductor: int, dim: int, multipliers: list[RightMultiplier],
                 table: list[FlatMatrix]):
        if len(table) != group.order:
            raise InvalidParameter("one matrix per group element required")
        self.group = group
        self.index = index
        self.name = name
        self.conductor = conductor
        self.dim = dim
        self.multipliers = tuple(multipliers)
        self.table = tuple(table)
        self._views: dict[int, CycMatrix] = {}
        self._character: CharacterVec | None = None

    def matrix(self, i: int) -> CycMatrix:
        view = self._views.get(i)
        if view is None:
            view = self._views[i] = unflatten(self.table[i], self.dim,
                                              self.conductor)
        return view

    def trace(self, i: int) -> FlatMatrix:
        """The trace of rho(element i) as a canonical flat form."""
        return flat_trace(self.table[i], self.dim, self.conductor)

    def character(self) -> CharacterVec:
        """The traces at the class representatives, as values at the
        irrep's conductor."""
        if self._character is None:
            group, conductor = self.group, self.conductor
            phi = euler_phi(conductor)
            values = []
            for c in range(len(group.classes)):
                coords, den = self.trace(group.class_representative(c))
                num = [0] * phi
                for power, n in coords:
                    num[power] = n
                values.append(CycNum(conductor, tuple(num), den))
            self._character = CharacterVec(group, values)
        return self._character

    def __repr__(self) -> str:
        return f"Irrep({self.name}, dim={self.dim})"


def irrep_from_images(group: FiniteMatrixGroup, index: int, name: str,
                      images: list[CycMatrix]) -> Irrep:
    """Extend generator images along the group's spanning tree.

    Each element's flat form is its parent's times the image of its last
    letter, through that letter's RightMultiplier.  Only shapes are checked
    here, and that each generator's element receives that generator's
    image.  Multiplicativity is checked once, by verify_irreps when the
    Setup is built.
    """
    if len(images) != len(group.generators):
        raise InvalidParameter("one image per generator required")
    dim = images[0].nrows if images else 1
    for img in images:
        if img.nrows != img.ncols or img.nrows != dim:
            raise InvalidParameter("irrep images must be square of equal size")
    conductor = common_conductor(row for img in images for row in img.rows)
    multipliers = [RightMultiplier(img, conductor) for img in images]
    table = [flat_identity(dim, conductor)] * group.order
    for j, parent, letter in group.tree:
        table[j] = multipliers[letter](table[parent])
    for g, action in zip(group.generators, multipliers):
        if table[group.index_of(g)] != action.image:
            raise InvalidParameter(
                f"generator images for {name} are not multiplicative")
    return Irrep(group, index, name, conductor, dim, multipliers, table)


@dataclass(frozen=True)
class VerifyReport:
    """The outcome of `verify_irreps`.  A passing report also carries the
    prime image and character residues of its orthonormality check, which
    the Setup reuses for its Lambda^k tables."""
    passed: bool
    failure: str | None
    dim_square_sum: int
    residues: tuple | None = field(default=None, compare=False, repr=False)


def verify_irreps(group: FiniteMatrixGroup, irreps: list[Irrep]) -> VerifyReport:
    """Check a claimed irrep table; reports rather than throws.

    Multiplicativity, rho(i * g) = rho(i) rho(g) for every element i and
    generator g, pins the whole multiplication table by induction on word
    length.  irrep_from_images forms rho(i * g) as rho(i) times the image of
    g whenever (i, g) is an edge of the group's spanning tree, so those
    |G| - 1 edges hold by construction once each generator's element
    carries its image; only the Schreier edges, the other |G| k - |G| + 1
    pairs, are compared, each by one RightMultiplier application on flat
    forms, which are equal exactly when the matrices are.  The multipliers
    keep their products, so an edge whose product the tree extension
    already formed (a repeated matrix of a non-faithful irrep) costs a
    lookup; once an irrep's edges hold, nothing applies its multipliers
    again, and their products are released.

    A multiplicative table is a homomorphism, so rho(h g h^-1) is conjugate
    to rho(g) and the trace is constant on classes without a check; the
    characters are the traces at the class representatives.  Then
    <chi_a, chi_b> = dim Hom_G(rho_b, rho_a) is an integer in
    [0, dim_a dim_b].  It is computed in F_p by Dixon's method, p = 1 (mod
    the conductor of the characters and of V's) and p above max dim^2 and
    |G|, so the residue is the exact integer.  p also exceeds the bound of
    `_lambda_tables`, so the Setup reduces its characters once.
    """
    dim_sq = sum(r.dim ** 2 for r in irreps)

    def fail(msg: str) -> VerifyReport:
        return VerifyReport(False, msg, dim_sq)

    if not irreps:
        return fail("empty irrep table")
    first = irreps[0]
    one = flat_identity(1, first.conductor)
    if first.dim != 1 or any(m != one for m in first.table):
        return fail("first irrep is not the trivial representation")
    gen_indices = [group.index_of(g) for g in group.generators]
    edges = [(i, g, group.mul(i, gen_indices[g]))
             for i, g in group.schreier_edges()]
    for rep in irreps:
        if rep.group is not group:
            return fail(f"{rep.name} belongs to a different group")
        table = rep.table
        if table[0] != flat_identity(rep.dim, rep.conductor):
            return fail(f"{rep.name} does not send the identity to the identity")
        actions = rep.multipliers
        for g, s in enumerate(gen_indices):
            if table[s] != actions[g].image:
                return fail(f"{rep.name} does not send generator {g} to its image")
        for i, g, target in edges:
            if table[target] != actions[g](table[i]):
                return fail(f"{rep.name} is not multiplicative at"
                            f" ({i}, {gen_indices[g]})")
        for action in actions:
            action.release()
    chars = [rep.character().values for rep in irreps]
    n1, top = group.dimension, max(r.dim for r in irreps)
    image = ModularImage(common_conductor([*chars, _defining_values(group)]),
                         max(top ** 2, group.order, comb(n1, n1 // 2) * top))
    left, right = _character_residues(group, chars, image)
    for a in range(len(irreps)):
        for b in range(a, len(irreps)):
            expect = 1 if a == b else 0
            got = sum(x * y for x, y in zip(left[a], right[b])) % image.p
            if got != expect:
                return fail(
                    f"<{irreps[a].name}, {irreps[b].name}> = {got}, expected {expect}")
    if dim_sq != group.order:
        return fail(f"dimension squares sum to {dim_sq}, group order is {group.order}")
    return VerifyReport(True, None, dim_sq, (image, left, right))


def sym_power_character(chi: CharacterVec, m: int) -> CharacterVec:
    """Character of the m-th symmetric power, by the Newton-style recursion
    h_m(g) = (1/m) * sum_{k=1..m} chi(g^k) h_{m-k}(g)."""
    return _newton_power(chi, m, alternating=False)


def ext_power_character(chi: CharacterVec, k: int) -> CharacterVec:
    """Character of the k-th exterior power, by the dual recursion
    e_k(g) = (1/k) * sum_{i=1..k} (-1)^(i-1) chi(g^i) e_{k-i}(g)."""
    return _newton_power(chi, k, alternating=True)


def _newton_power(chi: CharacterVec, m: int, alternating: bool) -> CharacterVec:
    """Degree m of the recursion, one degree at a time from degree 0."""
    if m < 0:
        raise NegativeDegree(f"power character of negative degree {m}")
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
    """dim (Sym^m V-dual)^G: invariant polynomial functions of degree m
    (irrep 0 is the trivial representation)."""
    return setup.hom_dim(0, m, 0, 0)


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

    The group dimension is n + 1; projective space has dimension n.  The
    irrep table is verified by `verify_irreps` on construction.
    """

    def __init__(self, group: FiniteMatrixGroup, irreps: list[Irrep]):
        report = verify_irreps(group, irreps)
        if not report.passed:
            raise InvalidParameter(f"irrep table rejected: {report.failure}")
        self._residues = report.residues
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
        return CharacterVec(self.group, _defining_values(self.group))

    def ext(self, k: int) -> CharacterVec:
        return ext_power_character(self.defining_character(), k)

    def det_character(self) -> CharacterVec:
        return self.ext(self.n_plus_1)

    def det_trivial(self) -> bool:
        """True when every element has determinant 1 (the group is in SL):
        det tensor the trivial irrep is then the trivial irrep, as the
        certified det permutation reads."""
        return self.det_twist(0) == 0

    def hom_dim(self, a: int, b: int, rho: int, sigma: int) -> int:
        """dim Hom(O(a) tensor rho, O(b) tensor sigma); zero when b < a."""
        m = b - a
        return self.sym_decomposition(m, sigma)[rho] if m >= 0 else 0

    def sym_decomposition(self, m: int, sigma: int) -> tuple[int, ...]:
        """Irrep multiplicities u_m of Sym^m V-dual tensor rho_sigma, by the
        Koszul relation u_m = sum_{k>=1} (-1)^(k+1) L_k u_(m-k), u_0 = e_sigma.
        Each sigma keeps its rows u_0, u_1, ... in one list, and a miss
        extends it in ascending order, each row read from the n + 1 before
        it, so nothing recurses and a table up to degree M costs M rows."""
        if m < 0:
            raise NegativeDegree(f"symmetric power of negative degree {m}")
        rows = self._sym_rows(sigma)
        while len(rows) <= m:
            d, out = len(rows), [0] * len(self.irreps)
            for k in range(1, min(d, self.n_plus_1) + 1):
                sign = 1 if k % 2 else -1
                table = self.lambda_table(k)
                for tau, u in enumerate(rows[d - k]):
                    if u:
                        for rho, mult in table[tau]:
                            out[rho] += sign * u * mult
            rows.append(tuple(out))
        return rows[m]

    @setup_memo
    def _sym_rows(self, sigma: int) -> list[tuple[int, ...]]:
        """The rows of `sym_decomposition` for sigma so far, from u_0 on."""
        return [tuple(int(rho == sigma) for rho in range(len(self.irreps)))]

    def lambda_table(self, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """L_k for 1 <= k <= n+1: row sigma lists the nonzero (rho,
        multiplicity) pairs of Lambda^k V-dual tensor rho_sigma."""
        return _lambda_tables(self)[0][k - 1]

    def det_twist(self, sigma: int) -> int:
        """The index of det tensor rho_sigma, det the determinant of V."""
        return _lambda_tables(self)[1][sigma]

    @setup_memo
    def central_scalars(self, d: int) -> CentralSubgroupInfo:
        return central_scalar_subgroup(self.group, d)

    @setup_memo
    def irrep_scalar_weight(self, j: int, info: CentralSubgroupInfo) -> int:
        """The exponent c with rho_j(zeta*Id) = zeta^c * Id for the canonical
        generator zeta of the scalar subgroup, computed once per (irrep,
        subgroup)."""
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


@setup_memo
def _lambda_tables(setup: Setup):
    """The tables L_1..L_(n+1) and the det permutation, by Dixon's method.

    Every class value is mapped into F_p by the prime image of
    `verify_irreps`, p = 1 (mod N) for N the lcm of the irrep and V
    conductors, whose character residues it reuses; Lambda^k V-dual comes
    from Newton's identities mod p, and each entry is an inner product mod
    p.  The entries lie in [0, C(n+1, k) * max dim] and p exceeds that and
    |G|, so each residue is the exact integer.  Each row's certificate is
    its dimension, sum_rho L_k[sigma][rho] dim rho = C(n+1, k) dim sigma,
    and L_(n+1) must be the permutation det^-1 tensor; anything else raises
    CertificateFailure.
    """
    group = setup.group
    n1 = setup.n_plus_1
    classes = range(len(group.classes))
    defining = _defining_values(group)
    dims = [rep.dim for rep in setup.irreps]
    image, left, right = setup._residues
    p = image.p
    # e_k of V-dual at each class: chi_(V-dual)(g^i) = conj chi_V(g^i)
    power_sums = [None] + [
        [image(defining[group.class_power(c, i)], conjugate=True)
         for c in classes] for i in range(1, n1 + 1)]
    ext = [[1] * len(classes)]
    for k in range(1, n1 + 1):
        inv_k = image.inverse(k)
        ext.append([
            sum((power_sums[i][c] if i % 2 else -power_sums[i][c])
                * ext[k - i][c] for i in range(1, k + 1)) * inv_k % p
            for c in classes])
    tables = []
    for k in range(1, n1 + 1):
        rows = []
        for sigma, chi in enumerate(left):
            prod = [e * x % p for e, x in zip(ext[k], chi)]
            row = []
            for rho, psi in enumerate(right):
                mult = sum(a * b for a, b in zip(prod, psi)) % p
                if mult:
                    row.append((rho, mult))
            if sum(mult * dims[rho] for rho, mult in row) != comb(n1, k) * dims[sigma]:
                raise CertificateFailure(
                    f"Lambda^{k} decomposition of {setup.irreps[sigma].name}"
                    f" fails its dimension certificate mod {p}")
            rows.append(tuple(row))
        tables.append(tuple(rows))
    det = [None] * len(dims)
    for sigma, row in enumerate(tables[-1]):
        if len(row) != 1 or row[0][1] != 1 or det[row[0][0]] is not None:
            raise CertificateFailure(
                f"Lambda^{n1} V-dual tensor {setup.irreps[sigma].name} does"
                f" not permute the irreps mod {p}")
        det[row[0][0]] = sigma
    return tuple(tables), tuple(det)


def _defining_values(group: FiniteMatrixGroup) -> list[CycNum]:
    """The character of V, the traces at the class representatives."""
    return [group.elements[group.class_representative(c)].trace()
            for c in range(len(group.classes))]


def _character_residues(group: FiniteMatrixGroup, chars, image: ModularImage):
    """Each character's class values mod p, and their conjugates weighted by
    |class| / |G|: the dot product of a left and a right row is the inner
    product <chi_a, chi_b> mod p."""
    p = image.p
    inv_order = image.inverse(group.order)
    left = [[image(v) for v in values] for values in chars]
    right = [[image(v, conjugate=True) * group.class_size(c) * inv_order % p
              for c, v in enumerate(values)] for values in chars]
    return left, right


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
        return Setup(group, [irrep_from_images(group, 0, "rho_0", [])])
    gen = CycMatrix.diagonal([CycNum.zeta(m, w % m) for w in weights])
    group = generate_group([gen])
    if group.order != m:
        raise InvalidParameter(
            f"diagonal generator has order {group.order}, expected exactly {m}")
    irreps = [irrep_from_images(group, j, f"rho_{j}",
                                [CycMatrix([[CycNum.zeta(m, j)]])])
              for j in range(m)]
    return Setup(group, irreps)


def binary_dihedral(l: int) -> Setup:
    """The order-4l group generated by diag(zeta_2l, zeta_2l^-1) and the
    rotation [[0,1],[-1,0]], with its standard irrep table attached."""
    if l < 1:
        raise InvalidParameter(f"binary dihedral parameter {l} must be positive")
    a = CycMatrix.diagonal([CycNum.zeta(2 * l), CycNum.zeta(2 * l, -1)])
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
            [CycMatrix.diagonal([CycNum.zeta(2 * l, h),
                                 CycNum.zeta(2 * l, -h)]),
             CycMatrix([[0, 1], [(-1) ** h, 0]])],
        ))
    images.append((f"rho_{l + 1}", [CycMatrix([[-one]]), CycMatrix([[beta]])]))
    images.append((f"rho_{l + 2}", [CycMatrix([[-one]]), CycMatrix([[-beta]])]))
    irreps = [irrep_from_images(group, j, name, imgs)
              for j, (name, imgs) in enumerate(images)]
    return Setup(group, irreps)
