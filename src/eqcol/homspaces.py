"""Explicit invariant morphism spaces between twisted equivariant sheaves.

A morphism from O(a) tensor rho to O(b) tensor sigma is a
(dim sigma x dim rho) matrix of homogeneous forms of degree b - a,
equivariant for the simultaneous action

    (g * H)(v) = sigma(g) . H(g^-1 v) . rho(g)^-1.

The invariant morphisms are the common kernel of (g * -) - 1 over the
generators g of the group: the action is multiplicative (Setup checks
every irrep with verify_irreps), so a morphism fixed by the generators
is fixed by the whole group, and a trivial group, with no generators,
fixes every morphism.  The constraint rows of all generators are stacked
and reduced sparsely, and the kernel is echelonized with a graded
lexicographic monomial order, monomial-major, then target row, then
source column.  The reduced echelon basis of a subspace is unique, so
the result is deterministic, and its length must equal the
character-theoretic multiplicity.

An element stores its nonzero ambient entries only, by flat index, and
every operation visits those entries.  Composition pairs each entry of f
with the entries of g on the same middle index.  Each basis vector is 1
at its pivot and 0 at every other pivot, so the coordinates of an
invariant morphism are its entries at the pivots, with no solve; the
invariance check subtracts the entries of the basis vectors with a
nonzero coordinate and must leave nothing.  Composition and coordinates
thus cost the supports, not the ambient dimension.

Only the twist difference m = b - a matters to the stored data, so
spaces are cached by (m, rho, sigma) and shared across twists.
"""

from __future__ import annotations

from operator import add

from .cyclotomic import CycNum
from .errors import BasisMismatch, NegativeDegree
from .linalg import _axpy, rref_rows, sparse_echelon, sparse_kernel
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
    """Per group generator g, the image of each degree-d monomial under
    x_i -> sum_j (g^-1)_{ij} x_j, as index -> coefficient dicts."""
    group = setup.group
    monos = monomial_basis(setup.n_plus_1, degree)
    midx = {a: i for i, a in enumerate(monos)}
    zero_exp = tuple([0] * setup.n_plus_1)
    actions = []
    for g in group.generators:
        ginv = group.elements[group.inv(group.index_of(g))]
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
    """A single equivariant morphism, stored as its nonzero ambient entries
    {flat index: value}.  No zero value is stored, so sums, scalar
    multiples, composition and coordinates cost the supports, not the
    ambient dimension."""

    __slots__ = ("space", "entries")

    def __init__(self, space: "HomSpace", entries: dict[int, CycNum]):
        """An element from its entries, a dict that holds no zero value."""
        self.space = space
        self.entries = entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomElement):
            return NotImplemented
        return self.space is other.space and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(sorted((j, v.key()) for j, v in self.entries.items())))

    def _merged(self, other: "HomElement", negate: bool) -> "HomElement":
        """self + other, or self - other, dropping the entries that cancel."""
        entries = dict(self.entries)
        for j, c in other.entries.items():
            old = entries.get(j)
            if old is None:
                entries[j] = -c if negate else c
            else:
                new = old - c if negate else old + c
                if new:
                    entries[j] = new
                else:
                    del entries[j]
        return HomElement(self.space, entries)

    def __add__(self, other: "HomElement") -> "HomElement":
        if self.space is not other.space:
            raise BasisMismatch("sum of morphisms from different spaces")
        return self._merged(other, False)

    def __sub__(self, other: "HomElement") -> "HomElement":
        if self.space is not other.space:
            raise BasisMismatch("difference of morphisms from different spaces")
        return self._merged(other, True)

    def __neg__(self) -> "HomElement":
        return HomElement(self.space, {j: -c for j, c in self.entries.items()})

    def __mul__(self, scalar) -> "HomElement":
        entries = {}
        for j, c in self.entries.items():
            v = c * scalar
            if v:
                entries[j] = v
        return HomElement(self.space, entries)

    __rmul__ = __mul__

    def poly_entries(self) -> list[list[str]]:
        """Human-readable matrix of polynomial entries (row s, column t)."""
        space = self.space
        names = [f"x{i + 1}" for i in range(space.setup.n_plus_1)]
        terms = [[[] for _ in range(space.dim_rho)] for _ in range(space.dim_sigma)]
        # ascending flat index is monomial-major, so each entry's terms
        # come in monomial order
        for k in sorted(self.entries):
            c = self.entries[k]
            rest, t = divmod(k, space.dim_rho)
            mi, s = divmod(rest, space.dim_sigma)
            mono = "*".join(
                names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(space.monomials[mi]) if e
            )
            cs = str(c)
            if mono:
                term = mono if cs == "1" else (f"-{mono}" if cs == "-1"
                                               else f"({cs})*{mono}")
            else:
                term = cs if "/" not in cs and " " not in cs else f"({cs})"
            terms[s][t].append(term)
        return [[" + ".join(cell).replace("+ -", "- ") if cell else "0"
                 for cell in row] for row in terms]

    def __repr__(self) -> str:
        return f"HomElement({self.poly_entries()})"


class HomSpace:
    """All equivariant morphisms of a fixed twist difference m >= 0: the
    vectors of the ambient space fixed by every generator of the group,
    in reduced echelon form with their pivots."""

    __slots__ = ("setup", "m", "rho_index", "sigma_index", "dim_rho",
                 "dim_sigma", "monomials", "_mono_index", "basis", "pivots",
                 "_pivot_at")

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
        # Row k of (g * -) - 1 for each generator g: basis vector j maps to
        # the combination sum_k A[k][j] e_k, so its image entries land in
        # column j of the rows they reach.
        constraints = []
        for g, images in zip(group.generators, actions):
            gi = group.index_of(g)
            sig = sigma.matrix(gi)
            rho_inv = rho.matrix(group.inv(gi))
            rows: list[dict[int, CycNum]] = [{} for _ in range(total)]
            for ai, image in enumerate(images):
                for s in range(self.dim_sigma):
                    for t in range(self.dim_rho):
                        j = self.flat_index_by_mono(ai, s, t)
                        for bi, c in image.items():
                            for s2 in range(self.dim_sigma):
                                left = sig.rows[s2][s]
                                if not left:
                                    continue
                                cl = c * left
                                for t2 in range(self.dim_rho):
                                    right = rho_inv.rows[t][t2]
                                    if right:
                                        k = self.flat_index_by_mono(bi, s2, t2)
                                        rows[k][j] = cl * right
            for k, row in enumerate(rows):
                diagonal = row.pop(k, CycNum.zero()) - 1
                if diagonal:
                    row[k] = diagonal
                if row:
                    constraints.append(row)
        kernel = sparse_kernel(*sparse_echelon(constraints), total)
        basis_rows, self.pivots = rref_rows(kernel)
        # The kernel is computed at the group conductor, so rational entries
        # come out stored there; reducing once here keeps later arithmetic on
        # the rational fast paths.
        self.basis = tuple(
            HomElement(self, {j: row[j].reduced() for j in sorted(row)})
            for row in basis_rows)
        self._pivot_at = {p: i for i, p in enumerate(self.pivots)}
        expected = setup.hom_dim(0, m, rho_index, sigma_index)
        if len(self.basis) != expected:
            raise BasisMismatch(
                f"projector rank {len(self.basis)} != multiplicity {expected}")

    @property
    def ambient_dim(self) -> int:
        return len(self.monomials) * self.dim_sigma * self.dim_rho

    def flat_index_by_mono(self, mono_idx: int, s: int, t: int) -> int:
        return (mono_idx * self.dim_sigma + s) * self.dim_rho + t

    def __len__(self) -> int:
        return len(self.basis)

    def identity_element(self) -> HomElement:
        if self.m != 0 or self.rho_index != self.sigma_index:
            raise BasisMismatch("identity exists only in degree-0 endomorphisms")
        one = CycNum.one()
        return HomElement(self, {self.flat_index_by_mono(0, s, s): one
                                 for s in range(self.dim_sigma)})

    def sparse_coordinates(self, elem: HomElement) -> dict[int, CycNum]:
        """Coordinates of an invariant morphism in the echelon basis, as
        {basis index: c} with the zeros dropped: its entries at the basis
        pivots.  The element minus that combination must vanish; only the
        entries of the basis vectors with a nonzero c are subtracted."""
        if elem.space is not self:
            raise BasisMismatch("element from a different space")
        pivot_at = self._pivot_at
        coords = {pivot_at[j]: c for j, c in elem.entries.items() if j in pivot_at}
        residual = dict(elem.entries)
        for i, c in coords.items():
            _axpy(residual, -c, self.basis[i].entries)
        if residual:
            raise BasisMismatch("element is outside the invariant span")
        return coords

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
    """The composite g o f of f: (rho, m1) -> sigma and g: (sigma, m2) -> tau.

    Each nonzero entry of f at (alpha, s, t) meets only the nonzero entries
    of g whose source column is s, so the cost is the product of the
    supports that meet, not of the ambient dimensions."""
    fs, gs = f.space, g.space
    if fs.setup is not gs.setup:
        raise BasisMismatch("morphisms over different setups")
    if fs.sigma_index != gs.rho_index:
        raise BasisMismatch(
            f"middle object mismatch: {fs.sigma_index} vs {gs.rho_index}")
    target = hom_space(fs.setup, fs.m + gs.m, fs.rho_index, gs.sigma_index)
    # g's entries grouped by their source column, the middle index
    by_middle: dict[int, list] = {}
    for k, cg in g.entries.items():
        rest, s = divmod(k, gs.dim_rho)
        bi, s2 = divmod(rest, gs.dim_sigma)
        by_middle.setdefault(s, []).append((gs.monomials[bi], s2, cg))
    mono_index, dim_tau, dim_rho = target._mono_index, gs.dim_sigma, fs.dim_rho
    entries: dict[int, CycNum] = {}
    for k, cf in f.entries.items():
        rest, t = divmod(k, dim_rho)
        ai, s = divmod(rest, fs.dim_sigma)
        alpha = fs.monomials[ai]
        for beta, s2, cg in by_middle.get(s, ()):
            gamma = tuple(map(add, alpha, beta))
            j = (mono_index[gamma] * dim_tau + s2) * dim_rho + t
            old = entries.get(j)
            entries[j] = cf * cg if old is None else old + cf * cg
    return HomElement(target, {j: c for j, c in entries.items() if c})
