"""Bounded complexes of equivariant line bundle sums, their Hom complexes,
and mutations.

A complex stores, per cohomological degree, an ordered list of line bundle
summands, and block differentials whose (target, source) entries are
invariant morphisms.  The twist span inside one complex is capped at n so
that between any two summands only degree-0 morphisms exist; this is what
makes the naive Hom complex compute Ext.  Between two different complexes
the same condition is the window precondition, checked pairwise.

Ext dimensions need only the ranks of the Hom-complex differentials:
dim Ext^k = dim Hom^k - rank delta^k - rank delta^(k-1), each rank taken
exactly by sparse elimination.  The H^k representatives C -> D[k] that
cones and the quiver need come from the same exact differentials.

Both mutations glue two complexes along the evaluation maps ev, for each
k with Ext^k(E, F) != 0 a basis of Hom(E, F[k]) of size h_k, in one pass
and in their own degrees: R = Cone(E -> sum_k F[k] tensor Ext^k(E, F)^*)[-1],
R^d = E^d + sum_k (F^(d-1+k))^(h_k), carries d_E, ev and minus the
differentials of the F[k]; L = Cone(sum_k E[-k] tensor Ext^k(E, F) -> F),
L^d = sum_k (E^(d+1-k))^(h_k) + F^d, carries minus those of the E[-k], ev
and d_F.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from .cohomology import EqLineBundle, KClass, ext_table, line_bundle_class
from .config import hom_complex_cap
from .errors import (
    BasisMismatch,
    HomComplexCapExceeded,
    InvalidParameter,
    WindowViolation,
)
from .cyclotomic import CycNum
from .homspaces import HomElement, HomSpace, compose_hom, hom_space
from .linalg import (SparseVec, eliminate_along, sparse_echelon, sparse_kernel,
                     sparse_rank)
from .reps import Setup


class EqComplex:
    """Immutable bounded complex of equivariant line bundles.

    `triangle` is (E, F) on a cone that `right_mutation` built, for its
    triangle R -> E -> sum_k F[k] tensor Ext^k(E, F)^* -> R[1], and None on
    every other complex.  It is bookkeeping for Ext, not part of the
    complex: equality and the hash ignore it, and shifts and twists drop
    it."""

    __slots__ = ("setup", "terms", "diffs", "triangle", "_line_bundle")

    def __init__(self, setup: Setup, terms, diffs=None, check: bool = True):
        cleaned = {}
        for degree, summands in terms.items():
            summands = tuple(summands)
            if summands:
                cleaned[int(degree)] = summands
        if not cleaned:
            raise InvalidParameter("a complex needs at least one summand")
        self.setup = setup
        self.terms = cleaned
        self.triangle = None
        self._line_bundle = (len(cleaned) == 1
                             and len(next(iter(cleaned.values()))) == 1)
        self.diffs = _nonzero_blocks(diffs or {})
        if check:
            self._validate()

    def _validate(self) -> None:
        twists = [b.twist for summands in self.terms.values() for b in summands]
        if max(twists) - min(twists) > self.setup.n:
            raise WindowViolation(
                f"twist span {max(twists) - min(twists)} exceeds n = {self.setup.n}")
        for degree, blocks in self.diffs.items():
            if degree not in self.terms or degree + 1 not in self.terms:
                raise InvalidParameter(f"differential at empty degree {degree}")
            _check_blocks(self.setup, blocks, self.terms[degree],
                          self.terms[degree + 1], f"differential at degree {degree}")
        for degree, blocks in self.diffs.items():
            square = _block_product(blocks, self.diffs.get(degree + 1, {}))
            if square:
                s, u = min((s, u) for u, s in square)
                raise InvalidParameter(f"d following d is nonzero at degree {degree}, "
                                       f"source {s}, target {u}")

    @property
    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def summands(self):
        for degree in self.degrees:
            for index, bundle in enumerate(self.terms[degree]):
                yield degree, index, bundle

    def is_line_bundle(self) -> bool:
        return self._line_bundle

    def single(self) -> tuple[int, EqLineBundle]:
        """(degree, bundle) of a one-summand complex."""
        if not self.is_line_bundle():
            raise InvalidParameter("complex has more than one summand")
        degree = next(iter(self.terms))
        return degree, self.terms[degree][0]

    def shift(self, k: int) -> "EqComplex":
        """C[k], with C[k]^d = C^(d+k) and differentials scaled by (-1)^k."""
        sign = 1 if k % 2 == 0 else -1
        terms = {d - k: summands for d, summands in self.terms.items()}
        diffs = {}
        for d, blocks in self.diffs.items():
            diffs[d - k] = {key: (elem if sign == 1 else -elem)
                            for key, elem in blocks.items()}
        return EqComplex(self.setup, terms, diffs, check=False)

    def twisted(self, k: int) -> "EqComplex":
        """Tensor with O(k).  Morphism spaces depend only on twist
        differences, so the differentials carry over unchanged."""
        terms = {d: tuple(b.twisted(k) for b in summands)
                 for d, summands in self.terms.items()}
        return EqComplex(self.setup, terms, self.diffs, check=False)

    def kclass(self) -> KClass:
        total = KClass.zero(self.setup)
        for degree, _, bundle in self.summands():
            cls = line_bundle_class(self.setup, bundle)
            total = total + (cls if degree % 2 == 0 else -cls)
        return total

    def label(self) -> str:
        if self.is_line_bundle():
            return self.single()[1].label(self.setup)
        levels = []
        for degree in self.degrees:
            parts = []
            for bundle in self.terms[degree]:
                name = bundle.label(self.setup)
                if parts and parts[-1][0] == name:
                    parts[-1][1] += 1
                else:
                    parts.append([name, 1])
            levels.append("+".join(name if count == 1 else f"{name}^{count}"
                                   for name, count in parts))
        return "{" + "->".join(levels) + "}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, EqComplex):
            return NotImplemented
        return (self.setup is other.setup and self.terms == other.terms
                and self.diffs == other.diffs)

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.terms.items())),))

    def __repr__(self) -> str:
        return f"EqComplex({self.label()})"


def from_line_bundle(setup: Setup, bundle: EqLineBundle, degree: int = 0) -> EqComplex:
    return EqComplex(setup, {degree: (bundle,)})


class ChainMap:
    """Degree-0 map of complexes; blocks[p][(t, s)] sends C^p[s] to D^p[t]."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: EqComplex, target: EqComplex, blocks,
                 check: bool = True):
        self.source = source
        self.target = target
        self.blocks = _nonzero_blocks(blocks)
        if check:
            self._validate()

    def _validate(self) -> None:
        """Every block lies in its Hom space over the common setup, and
        d_D f = f d_C, both sides compared as block products, in every
        degree where f meets d_D or d_C meets f."""
        C, D = self.source, self.target
        if C.setup is not D.setup:
            raise BasisMismatch("chain map between complexes over different setups")
        for degree, entry in self.blocks.items():
            if degree not in C.terms or degree not in D.terms:
                raise InvalidParameter(f"chain map block at empty degree {degree}")
            _check_blocks(C.setup, entry, C.terms[degree], D.terms[degree],
                          f"chain map at degree {degree}")
        for degree in sorted((self.blocks.keys() & D.diffs.keys())
                             | {p for p in C.diffs if p + 1 in self.blocks}):
            if (_block_product(self.blocks.get(degree, {}), D.diffs.get(degree, {}))
                    != _block_product(C.diffs.get(degree, {}),
                                      self.blocks.get(degree + 1, {}))):
                raise InvalidParameter(
                    f"chain map does not commute with differentials at degree {degree}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(sorted(self.blocks))))


def _nonzero_blocks(maps) -> dict[int, dict]:
    """{degree: {(t, s): block}} with the zero blocks and the degrees left
    empty dropped."""
    out = {}
    for degree, entry in maps.items():
        kept = {key: elem for key, elem in entry.items() if elem}
        if kept:
            out[int(degree)] = kept
    return out


def _check_blocks(setup: Setup, blocks, sources, targets, what: str) -> None:
    """Each block (t, s) must index summand s of sources and summand t of
    targets, an InvalidParameter otherwise, and lie in
    Hom(sources[s], targets[t]) over setup, a BasisMismatch otherwise."""
    for (t, s), elem in blocks.items():
        if not (0 <= s < len(sources) and 0 <= t < len(targets)):
            raise InvalidParameter(f"{what}: block ({t},{s}) out of range")
        space, a, b = elem.space, sources[s], targets[t]
        if (space.setup is not setup or space.m != b.twist - a.twist
                or space.rho_index != a.irrep or space.sigma_index != b.irrep):
            raise BasisMismatch(
                f"{what}: block ({t},{s}) lives in the wrong morphism space")


def _block_product(first, second) -> dict:
    """The blocks of second o first, for block maps {(t, s): f} and
    {(u, t): g}: block (u, s) sums g o f over the t where both blocks
    exist.  Only the pairs of blocks that meet are composed, and the sums
    that vanish are dropped."""
    after: dict[int, list] = {}
    for (u, t), g in second.items():
        after.setdefault(t, []).append((u, g))
    product: dict[tuple[int, int], HomElement] = {}
    for (t, s), f in first.items():
        for u, g in after.get(t, ()):
            comp = compose_hom(f, g)
            old = product.get((u, s))
            product[(u, s)] = comp if old is None else old + comp
    return {key: elem for key, elem in product.items() if elem}


def identity_chain_map(C: EqComplex) -> ChainMap:
    blocks = {degree: {(s, s): hom_space(C.setup, 0, b.irrep, b.irrep).identity_element()
                       for s, b in enumerate(summands)}
              for degree, summands in C.terms.items()}
    return ChainMap(C, C, blocks, check=False)


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """g after f."""
    if f.target != g.source:
        raise BasisMismatch("chain maps do not compose")
    blocks = {degree: _block_product(entry, g.blocks[degree])
              for degree, entry in f.blocks.items() if degree in g.blocks}
    return ChainMap(f.source, g.target, blocks, check=False)


def _accumulate(column: SparseVec, offset: int, space: HomSpace,
                elem: HomElement, negate: bool) -> None:
    """Add the coordinates of elem in space, or subtract them, at the rows
    from offset on."""
    for i, c in space.sparse_coordinates(elem).items():
        row = offset + i
        if negate:
            c = -c
        old = column.get(row)
        column[row] = c if old is None else old + c


class HomComplexData:
    """The complex Hom^k = sum over p of Hom(C^p, D^(p+k)), with exact
    differentials delta(f) = d_D o f - (-1)^k f o d_C.

    One pass over the setup's integer tables (`Setup.hom_dim`), with no Hom
    space built, gives the dimensions and one table per degree: the first
    row in Hom^k of each nonzero Hom(C^p[s], D^(p+k)[t]), keyed by
    (p, s, t), rows running over p, then s, then t.  That table places the
    columns of `delta`, the coordinates `chain_map` reads and the blocks
    the H^0 read-back writes, so the read-back costs the chain map's
    blocks.  The Hom spaces of a degree are built when its differential is
    first needed.  delta^k and delta^(k-1) are delta^0 and delta^(-1) of
    (C, D[k]) up to the sign (-1)^k, which the reduced echelon rows that
    pick the H^k representatives do not see: one complex serves every k."""

    def __init__(self, C: EqComplex, D: EqComplex):
        if C.setup is not D.setup:
            raise BasisMismatch("complexes over different setups")
        self.setup = setup = C.setup
        self.source = C
        self.target = D
        high = max(a.twist for _, _, a in C.summands())
        low = min(b.twist for _, _, b in D.summands())
        if low - high < -setup.n:
            raise WindowViolation(
                f"pair of twists ({high}, {low}) admits higher "
                "Ext classes that the Hom complex cannot see")
        c_degrees = C.degrees
        d_degrees = D.degrees
        hom_dim, cap = setup.hom_dim, hom_complex_cap()
        self.dims: dict[int, int] = {}
        self._rows: dict[int, dict[tuple[int, int, int], int]] = {}
        for k in range(d_degrees[0] - c_degrees[-1], d_degrees[-1] - c_degrees[0] + 1):
            rows, total = {}, 0
            for p in c_degrees:
                targets = D.terms.get(p + k, ())
                for s, a in enumerate(C.terms[p]):
                    for t, b in enumerate(targets):
                        d = hom_dim(a.twist, b.twist, a.irrep, b.irrep)
                        if d:
                            rows[(p, s, t)] = total
                            total += d
            if total > cap:
                raise HomComplexCapExceeded(
                    f"Hom complex {C.label()} -> {D.label()} has dimension"
                    f" {total} in degree {k}, above the cap"
                    f" EQCOL_HOM_COMPLEX_CAP={cap}")
            if total:
                self.dims[k] = total
                self._rows[k] = rows
        self._deltas: dict[int, list[SparseVec]] = {}
        self._ranks: dict[int, int] = {}
        self._records: dict[int, tuple] = {}

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def _space(self, a: EqLineBundle, b: EqLineBundle) -> HomSpace:
        """The Hom space from a to b, from the setup's memo."""
        return hom_space(self.setup, b.twist - a.twist, a.irrep, b.irrep)

    def _slices(self, k: int):
        """(p, s, t, space, offset) for each nonzero Hom(C^p[s], D^(p+k)[t]),
        in row order."""
        C, D = self.source, self.target
        for (p, s, t), offset in self._rows.get(k, {}).items():
            yield p, s, t, self._space(C.terms[p][s], D.terms[p + k][t]), offset

    @cached_property
    def _diff_index(self):
        """The blocks of D's differential by source, (q, t) -> [(u, g)], and
        those of C's by target, (p, s) -> [(sp, e)], each list ascending."""
        posts: dict[tuple[int, int], list] = {}
        for q, blocks in self.target.diffs.items():
            for (u, t), g in sorted(blocks.items(), key=lambda item: item[0][0]):
                posts.setdefault((q, t), []).append((u, g))
        pres: dict[tuple[int, int], list] = {}
        for d, blocks in self.source.diffs.items():
            for (s, sp), e in sorted(blocks.items(), key=lambda item: item[0][1]):
                pres.setdefault((d + 1, s), []).append((sp, e))
        return posts, pres

    def delta(self, k: int) -> list[SparseVec]:
        """delta^k as sparse columns, one per basis vector of Hom^k, each
        {row: value} with the zero entries dropped.  Each column composes a
        basis vector f with the blocks g of D's differential and e of C's
        that meet its Hom space, and reads the coordinates of g o f and
        f o e with `sparse_coordinates` at the first row of the space of
        Hom^(k+1) they land in; both visit the nonzero entries only, so a
        column costs the supports it receives, not the ambient dimensions
        of its Hom spaces."""
        if k in self._deltas:
            return self._deltas[k]
        C, D = self.source, self.target
        post_index, pre_index = self._diff_index
        outs = self._rows.get(k + 1, {})
        negate_pre = k % 2 == 0
        columns = []
        for p, s, t, space, _ in self._slices(k):
            q = p + k
            a, b = C.terms[p][s], D.terms[q][t]
            posts = [(g, outs[(p, s, u)], self._space(a, D.terms[q + 1][u]))
                     for u, g in post_index.get((q, t), ())
                     if (p, s, u) in outs]
            pres = [(e, outs[(p - 1, sp, t)], self._space(C.terms[p - 1][sp], b))
                    for sp, e in pre_index.get((p, s), ())
                    if (p - 1, sp, t) in outs]
            for f in space.basis:
                column: SparseVec = {}
                for g, start, out in posts:
                    _accumulate(column, start, out, compose_hom(f, g), False)
                for e, start, out in pres:
                    _accumulate(column, start, out, compose_hom(e, f), negate_pre)
                columns.append({i: c for i, c in column.items() if c})
        self._deltas[k] = columns
        return columns

    def rank(self, k: int) -> int:
        """The exact rank of delta^k."""
        if k not in self._ranks:
            self._ranks[k] = (sparse_rank(self.delta(k))
                              if k in self.dims and k + 1 in self.dims else 0)
        return self._ranks[k]

    def ext_dims(self) -> dict[int, int]:
        """The cohomology dimensions, nonzero only."""
        out = {}
        for k, dim in self.dims.items():
            h = dim - self.rank(k) - self.rank(k - 1)
            if h:
                out[k] = h
        return out

    def _cohomology(self, k: int):
        """Degree k's record, built once: sparse echelon rows, those of
        delta^(k-1) reduced first, then one cycle per H^k basis vector; each
        row's index by its lead; the boundary count; Hom^k's (p, s, t) keys
        and first rows, for bisection; and D[k], the target of every map of
        degree k.  The cycles are the kernel of delta^k, read off the reduced
        echelon rows of its transpose; each reduced along the span so far is
        kept, scaled to 1 at its first nonzero entry, when something is left."""
        if k in self._records:
            return self._records[k]
        span, leads = sparse_echelon(self.delta(k - 1))
        count = len(span)
        transposed: dict[int, SparseVec] = {}
        for j, column in enumerate(self.delta(k)):
            for i, c in column.items():
                transposed.setdefault(i, {})[j] = c
        kernel = sparse_kernel(*sparse_echelon(transposed[i] for i in sorted(transposed)),
                               self.dim(k))
        position = {lead: i for i, lead in enumerate(leads)}
        for v in kernel:
            _, v = eliminate_along(v, span, position)
            if not v:
                continue
            lead = min(v)
            inv = v[lead].inverse()
            position[lead] = len(span)
            span.append({j: c * inv for j, c in v.items()})
        rows = self._rows.get(k, {})
        self._records[k] = (span, position, count, list(rows), list(rows.values()),
                            self.target.shift(k) if k else self.target)
        return self._records[k]

    def chain_map(self, coords, k: int) -> ChainMap:
        """The chain map C -> D[k] with Hom^k coordinates {index: c}, an
        index outside Hom^k an InvalidParameter.  Each coordinate finds its
        slice by bisection over the first rows of Hom^k's table, so the map
        costs its support, not dim Hom^k."""
        C, D = self.source, self.target
        *_, keys, starts, target = self._cohomology(k)
        blocks: dict[int, dict] = {}
        for index in sorted(coords):
            if not 0 <= index < self.dim(k):
                raise InvalidParameter(f"coordinate {index} is outside Hom^{k}")
            i = bisect_right(starts, index) - 1
            p, s, t = keys[i]
            space = self._space(C.terms[p][s], D.terms[p + k][t])
            part = space.basis[index - starts[i]] * coords[index]
            entry = blocks.setdefault(p, {})
            entry[(t, s)] = entry[(t, s)] + part if (t, s) in entry else part
        return ChainMap(C, target, blocks)

    def hk_maps(self, k: int) -> list[ChainMap]:
        """Cycle representatives C -> D[k] of a basis of H^k, by echelon
        lifting: each is the unique cycle of its class modulo the
        boundaries and the earlier representatives that is 0 at all their
        pivots, built from its sparse row of the degree-k record."""
        span, _, count, *_ = self._cohomology(k)
        return [self.chain_map(row, k) for row in span[count:]]

    def _sparse_vector(self, cm: ChainMap) -> SparseVec:
        """The Hom^0 coordinates of a chain map, {row: value} with the
        zeros dropped: each of its blocks is read with `sparse_coordinates`
        at the first row of its slice in Hom^0's table, so the cost is the
        chain map's blocks, not the slices of Hom^0."""
        if cm.source != self.source or cm.target != self.target:
            raise BasisMismatch("chain map belongs to a different Hom complex")
        C, D = self.source, self.target
        rows = self._rows.get(0, {})
        vector: SparseVec = {}
        for p, entry in cm.blocks.items():
            for (t, s), elem in entry.items():
                offset = rows.get((p, s, t))
                if offset is None:
                    raise BasisMismatch(
                        "chain map has a block in a zero morphism space")
                space = self._space(C.terms[p][s], D.terms[p][t])
                for i, c in space.sparse_coordinates(elem).items():
                    vector[offset + i] = c
        return vector

    def h0_coordinates(self, cm: ChainMap) -> dict[int, CycNum]:
        """Coefficients of a degree-0 cycle over hk_maps(0), modulo
        boundaries, as {index: c} with the zeros dropped, read along the
        rows of the degree-0 record.

        When Hom^-1 and Hom^1 are both 0 there are no boundaries and every
        vector is a cycle, so H^0 = Hom^0, hk_maps(0) are the unit vectors
        in order, and the coefficients are the Hom^0 coordinates."""
        vector = self._sparse_vector(cm)
        if not self.dim(-1) and not self.dim(1):
            return vector
        span, position, count, *_ = self._cohomology(0)
        coords, residual = eliminate_along(vector, span, position)
        if residual:
            raise BasisMismatch("map is not a cycle in the given Hom complex")
        return {i - count: c for i, c in coords.items() if i >= count}


def hom_complex(C: EqComplex, D: EqComplex) -> HomComplexData:
    return HomComplexData(C, D)


def ext_dims(C: EqComplex, D: EqComplex) -> dict[int, int]:
    return HomComplexData(C, D).ext_dims()


def pair_ext_dims(C: EqComplex, D: EqComplex) -> dict[int, int]:
    """Ext dimensions for any pair; single line bundles bypass the window
    restriction through the closed-form cohomology formula."""
    if C.is_line_bundle() and D.is_line_bundle():
        p, a = C.single()
        q, b = D.single()
        return {k + q - p: dim for k, dim in ext_table(C.setup, a, b).items()}
    return ext_dims(C, D)


def cohomology_basis(C: EqComplex, D: EqComplex) -> list[ChainMap]:
    return HomComplexData(C, D).hk_maps(0)


def _evaluation_maps(E: EqComplex, F: EqComplex,
                     left: bool = False) -> list[ChainMap]:
    """For each k with Ext^k(E, F) != 0, in ascending k, a basis of
    Hom(E, F[k]): the H^k representatives of the one Hom complex of (E, F),
    with left moved up k degrees onto one E[-k]; empty when the pair is
    orthogonal.  A pair of line bundles takes its dimensions from the
    closed form, so an orthogonal pair builds no Hom complex."""
    dims = None
    if E.is_line_bundle() and F.is_line_bundle():
        dims = pair_ext_dims(E, F)
        if not dims:
            return []
    data = HomComplexData(E, F)
    maps = []
    for k, h in sorted((dims or data.ext_dims()).items()):
        basis = data.hk_maps(k)
        if len(basis) != h:
            raise BasisMismatch(f"{len(basis)} cohomology representatives"
                                f" for an Ext^{k} of dimension {h}")
        if left and k:
            source = E.shift(-k)
            basis = [ChainMap(source, F, {p + k: entry for p, entry in phi.blocks.items()},
                              check=False) for phi in basis]
        maps += basis
    return maps


def _negated_copies(complexes: list[EqComplex]) -> EqComplex:
    """The direct sum of the complexes, in each degree the summands of the
    first, then of the second and so on, with the blocks of each distinct
    complex negated once and shared by its copies."""
    terms: dict[int, list] = {}
    diffs: dict[int, dict] = {}
    negated: dict[int, dict] = {}
    for C in complexes:
        if id(C) not in negated:
            negated[id(C)] = {d: [(t, s, -elem) for (t, s), elem in blocks.items()]
                              for d, blocks in C.diffs.items()}
        for d, blocks in negated[id(C)].items():
            rows, cols = len(terms.get(d + 1, ())), len(terms.get(d, ()))
            diffs.setdefault(d, {}).update(
                ((rows + t, cols + s), elem) for t, s, elem in blocks)
        for d, summands in C.terms.items():
            terms.setdefault(d, []).extend(summands)
    return EqComplex(complexes[0].setup, terms, diffs, check=False)


def _stacked(maps: list[ChainMap], left: bool):
    """The direct sum of the maps' targets, or with left of their sources,
    negated by `_negated_copies`, and the maps as one map into it, or out
    of it."""
    ends = [phi.source if left else phi.target for phi in maps]
    offsets: dict[int, int] = {}
    ev: dict[int, dict] = {}
    for phi, end in zip(maps, ends):
        for d, entry in phi.blocks.items():
            o = offsets.get(d, 0)
            ev.setdefault(d, {}).update(
                ((t, o + s) if left else (o + t, s), elem)
                for (t, s), elem in entry.items())
        for d, summands in end.terms.items():
            offsets[d] = offsets.get(d, 0) + len(summands)
    return _negated_copies(ends), ev


def _glue(X: EqComplex, Y: EqComplex, blocks, lift: int) -> EqComplex:
    """T^d = X^(d+lift) + Y^(d+lift-1), X's summands first, whose
    differential takes the blocks of d_X, of d_Y and of the map f with
    blocks[p][(t, s)]: X^p[s] -> Y^p[t] as given; T is a complex when
    f d_X + d_Y f = 0.  Cone(f: C -> D) is _glue(C with -d_C, D, f, 1)."""
    offset = {}
    terms = {}
    for d in sorted({p - lift for p in X.terms} | {q + 1 - lift for q in Y.terms}):
        x_part = X.terms.get(d + lift, ())
        offset[d] = len(x_part)
        terms[d] = x_part + Y.terms.get(d + lift - 1, ())
    diffs: dict[int, dict] = {}
    for p, entry in X.diffs.items():
        diffs.setdefault(p - lift, {}).update(entry)
    for q, entry in Y.diffs.items():
        d = q + 1 - lift
        diffs.setdefault(d, {}).update(
            ((offset[d + 1] + t, offset[d] + s), elem)
            for (t, s), elem in entry.items())
    for p, entry in blocks.items():
        d = p - lift
        diffs.setdefault(d, {}).update(
            ((offset[d + 1] + t, s), elem) for (t, s), elem in entry.items())
    return EqComplex(X.setup, terms, diffs)


def right_mutation(E: EqComplex, F: EqComplex) -> EqComplex:
    """Move F leftward past E: E is replaced by
    R = Cone(E -> sum_k F[k] tensor Ext^k(E, F)^*)[-1], whose map stacks the
    evaluation maps over the copies of the F[k], h_k = dim Ext^k(E, F) of
    each, in ascending k: R^d = E^d + sum_k (F^(d-1+k))^(h_k), with E's own
    blocks, ev and minus the blocks of the F[k].  R records (E, F) as its
    `triangle`.  An orthogonal pair is a pure transposition and returns E
    unchanged."""
    maps = _evaluation_maps(E, F)
    if not maps:
        return E
    copies, ev = _stacked(maps, False)
    R = _glue(E, copies, ev, 0)
    R.triangle = (E, F)
    return R


def left_mutation(E: EqComplex, F: EqComplex) -> EqComplex:
    """Move E rightward past F: F is replaced by
    L = Cone(sum_k E[-k] tensor Ext^k(E, F) -> F), whose map sends the h_k
    copies of each E[-k] along the evaluation maps of Hom(E[-k], F):
    L^d = sum_k (E^(d+1-k))^(h_k) + F^d, with minus the blocks of the E[-k],
    ev and F's own blocks.  Orthogonal pairs transpose and return F
    unchanged."""
    maps = _evaluation_maps(E, F, left=True)
    if not maps:
        return F
    copies, ev = _stacked(maps, True)
    return _glue(copies, F, ev, 1)
