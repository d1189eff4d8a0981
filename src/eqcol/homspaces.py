"""Explicit invariant morphism spaces between twisted equivariant sheaves.

A morphism from O(a) tensor rho to O(b) tensor sigma is a
(dim sigma x dim rho) matrix of homogeneous forms of degree b - a,
equivariant for the simultaneous action

    (g * H)(v) = sigma(g) . H(g^-1 v) . rho(g)^-1.

Bases are produced by averaging the standard spanning set under this
action (the Reynolds projector) and echelonizing with a graded
lexicographic monomial order, monomial-major, then target row, then
source column.  The result is deterministic and its length always
equals the character-theoretic multiplicity.

Only the twist difference m = b - a matters to the stored data, so
spaces are cached by (m, rho, sigma) and shared across twists.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum
from .errors import BasisMismatch, NegativeDegree
from .linalg import CycMatrix, rref_rows
from .reps import Setup, setup_memo

Monomial = tuple[int, ...]


def monomial_basis(nvars: int, degree: int) -> list[Monomial]:
    """Exponent tuples of total degree, in descending lexicographic order."""
    out: list[Monomial] = []

    def rec(prefix: Monomial, remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), degree, nvars)
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[Monomial, CycNum] = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prod = ca * cb
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return {k: v for k, v in out.items() if v}


@setup_memo
def _monomial_actions(setup: Setup, degree: int):
    """Per group element, the image of each degree-d monomial under
    x_i -> sum_j (g^-1)_{ij} x_j, as index -> coefficient dicts."""
    group = setup.group
    monos = monomial_basis(setup.n_plus_1, degree)
    midx = {a: i for i, a in enumerate(monos)}
    zero_exp = tuple([0] * setup.n_plus_1)
    actions = []
    for gi in range(group.order):
        ginv = group.elements[group.inv(gi)]
        forms = []
        for i in range(setup.n_plus_1):
            form = {}
            for j in range(setup.n_plus_1):
                c = ginv.rows[i][j]
                if c:
                    exp = tuple(1 if t == j else 0 for t in range(setup.n_plus_1))
                    form[exp] = c
            forms.append(form)
        per_mono = []
        for alpha in monos:
            poly = {zero_exp: CycNum.one()}
            for i, e in enumerate(alpha):
                for _ in range(e):
                    poly = _poly_mul(poly, forms[i])
            per_mono.append({midx[beta]: c for beta, c in poly.items()})
        actions.append(per_mono)
    return monos, actions


class HomElement:
    """A single equivariant morphism, stored as a dense coordinate vector."""

    __slots__ = ("space", "coords")

    def __init__(self, space: "HomSpace", coords):
        coords = tuple(coords)
        if len(coords) != space.ambient_dim:
            raise BasisMismatch("coordinate length does not match the space")
        self.space = space
        self.coords = coords

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomElement):
            return NotImplemented
        return self.space is other.space and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(tuple(v.key() for v in self.coords))

    def __add__(self, other: "HomElement") -> "HomElement":
        if self.space is not other.space:
            raise BasisMismatch("sum of morphisms from different spaces")
        return HomElement(self.space,
                          [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "HomElement") -> "HomElement":
        if self.space is not other.space:
            raise BasisMismatch("difference of morphisms from different spaces")
        return HomElement(self.space,
                          [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "HomElement":
        return HomElement(self.space, [-a for a in self.coords])

    def __mul__(self, scalar) -> "HomElement":
        return HomElement(self.space, [a * scalar for a in self.coords])

    __rmul__ = __mul__

    def poly_entries(self) -> list[list[str]]:
        """Human-readable matrix of polynomial entries (row s, column t)."""
        space = self.space
        names = [f"x{i + 1}" for i in range(space.setup.n_plus_1)]
        grid = []
        for s in range(space.dim_sigma):
            row = []
            for t in range(space.dim_rho):
                terms = []
                for mi, alpha in enumerate(space.monomials):
                    c = self.coords[space.flat_index_by_mono(mi, s, t)]
                    if not c:
                        continue
                    mono = "*".join(
                        names[i] + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(alpha) if e
                    )
                    cs = str(c)
                    if mono:
                        term = mono if cs == "1" else (f"-{mono}" if cs == "-1"
                                                       else f"({cs})*{mono}")
                    else:
                        term = cs if "/" not in cs and " " not in cs else f"({cs})"
                    terms.append(term)
                row.append(" + ".join(terms).replace("+ -", "- ") if terms else "0")
            grid.append(row)
        return grid

    def __repr__(self) -> str:
        return f"HomElement({self.poly_entries()})"


class HomSpace:
    """All equivariant morphisms of a fixed twist difference m >= 0."""

    __slots__ = ("setup", "m", "rho_index", "sigma_index", "dim_rho",
                 "dim_sigma", "monomials", "_mono_index", "basis", "_solver")

    def __init__(self, setup: Setup, m: int, rho_index: int, sigma_index: int):
        if m < 0:
            raise NegativeDegree(f"morphisms of negative degree {m}")
        self.setup = setup
        self.m = m
        self.rho_index = rho_index
        self.sigma_index = sigma_index
        rho, sigma = setup.irreps[rho_index], setup.irreps[sigma_index]
        self.dim_rho, self.dim_sigma = rho.dim, sigma.dim
        monos, actions = _monomial_actions(setup, m)
        self.monomials = monos
        self._mono_index = {a: i for i, a in enumerate(monos)}
        group = setup.group
        total = self.ambient_dim
        scale = Fraction(1, group.order)
        images = []
        for ai in range(len(monos)):
            for s in range(self.dim_sigma):
                for t in range(self.dim_rho):
                    vec = [CycNum.zero()] * total
                    for gi in range(group.order):
                        sig = sigma.matrix(gi)
                        rho_inv = rho.matrix(group.inv(gi))
                        for bi, c in actions[gi][ai].items():
                            for s2 in range(self.dim_sigma):
                                left = sig.rows[s2][s]
                                if not left:
                                    continue
                                cl = c * left
                                for t2 in range(self.dim_rho):
                                    right = rho_inv.rows[t][t2]
                                    if right:
                                        k = self.flat_index_by_mono(bi, s2, t2)
                                        vec[k] = vec[k] + cl * right
                    images.append([v * scale for v in vec])
        basis_rows, _ = rref_rows(images)
        self.basis = tuple(HomElement(self, row) for row in basis_rows)
        expected = setup.hom_dim(0, m, rho_index, sigma_index)
        if len(self.basis) != expected:
            raise BasisMismatch(
                f"projector rank {len(self.basis)} != multiplicity {expected}")
        self._solver = None

    @property
    def ambient_dim(self) -> int:
        return len(self.monomials) * self.dim_sigma * self.dim_rho

    def flat_index(self, alpha: Monomial, s: int, t: int) -> int:
        return self.flat_index_by_mono(self._mono_index[alpha], s, t)

    def flat_index_by_mono(self, mono_idx: int, s: int, t: int) -> int:
        return (mono_idx * self.dim_sigma + s) * self.dim_rho + t

    def __len__(self) -> int:
        return len(self.basis)

    def zero_element(self) -> HomElement:
        return HomElement(self, [CycNum.zero()] * self.ambient_dim)

    def identity_element(self) -> HomElement:
        if self.m != 0 or self.rho_index != self.sigma_index:
            raise BasisMismatch("identity exists only in degree-0 endomorphisms")
        coords = [CycNum.zero()] * self.ambient_dim
        for s in range(self.dim_sigma):
            coords[self.flat_index_by_mono(0, s, s)] = CycNum.one()
        return HomElement(self, coords)

    def coordinates_of(self, elem: HomElement) -> tuple[CycNum, ...]:
        """Coordinates of an invariant morphism in the echelon basis."""
        if elem.space is not self:
            raise BasisMismatch("element from a different space")
        if not self.basis:
            if elem:
                raise BasisMismatch("nonzero element of a zero space")
            return ()
        if self._solver is None:
            self._solver = CycMatrix(
                [[b.coords[i] for b in self.basis] for i in range(self.ambient_dim)])
        sol = self._solver.solve(list(elem.coords))
        if sol is None:
            raise BasisMismatch("element is outside the invariant span")
        return sol

    def __repr__(self) -> str:
        names = self.setup.irreps
        return (f"HomSpace(m={self.m}, {names[self.rho_index].name} -> "
                f"{names[self.sigma_index].name}, dim={len(self.basis)})")


@setup_memo
def hom_space(setup: Setup, m: int, rho_index: int, sigma_index: int) -> HomSpace:
    """The space of invariant morphisms of twist difference m from rho to
    sigma, built once per setup."""
    return HomSpace(setup, m, rho_index, sigma_index)


def compose_hom(f: HomElement, g: HomElement) -> HomElement:
    """The composite g o f of f: (rho, m1) -> sigma and g: (sigma, m2) -> tau."""
    fs, gs = f.space, g.space
    if fs.setup is not gs.setup:
        raise BasisMismatch("morphisms over different setups")
    if fs.sigma_index != gs.rho_index:
        raise BasisMismatch(
            f"middle object mismatch: {fs.sigma_index} vs {gs.rho_index}")
    target = hom_space(fs.setup, fs.m + gs.m, fs.rho_index, gs.sigma_index)
    coords = [CycNum.zero()] * target.ambient_dim
    for ai, alpha in enumerate(fs.monomials):
        for s in range(fs.dim_sigma):
            for t in range(fs.dim_rho):
                cf = f.coords[fs.flat_index_by_mono(ai, s, t)]
                if not cf:
                    continue
                for bi, beta in enumerate(gs.monomials):
                    for s2 in range(gs.dim_sigma):
                        cg = g.coords[gs.flat_index_by_mono(bi, s2, s)]
                        if not cg:
                            continue
                        gamma = tuple(x + y for x, y in zip(alpha, beta))
                        k = target.flat_index(gamma, s2, t)
                        coords[k] = coords[k] + cf * cg
    return HomElement(target, coords)
