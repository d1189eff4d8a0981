"""Bounded complexes of equivariant line bundle sums, their Hom complexes,
and mutations.

A complex stores, per cohomological degree, an ordered list of line bundle
summands, and block differentials whose (target, source) entries are
invariant morphisms.  The twist span inside one complex is capped at n so
that between any two summands only degree-0 morphisms exist; this is what
makes the naive Hom complex compute Ext.  Between two different complexes
the same condition is the window precondition, checked pairwise.

Mutation degree convention: the right mutation keeps E in its original
degrees and glues the copies of F one degree higher.  The left mutation
keeps F and glues the copies of E one degree lower.
"""

from __future__ import annotations

from .cohomology import EqLineBundle, KClass, ext_table, line_bundle_class
from .errors import (
    BasisMismatch,
    InvalidParameter,
    NonConcentratedHom,
    WindowViolation,
)
from .cyclotomic import CycNum
from .homspaces import HomElement, compose_hom, hom_space
from .linalg import CycMatrix, rref_rows
from .reps import Setup


class EqComplex:
    """Immutable bounded complex of equivariant line bundles."""

    __slots__ = ("setup", "terms", "diffs")

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
        self.diffs = {}
        for degree, blocks in (diffs or {}).items():
            degree = int(degree)
            kept = {key: val for key, val in blocks.items() if val}
            if kept:
                self.diffs[degree] = kept
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
            sources = self.terms[degree]
            targets = self.terms[degree + 1]
            for (t, s), elem in blocks.items():
                if not (0 <= s < len(sources) and 0 <= t < len(targets)):
                    raise InvalidParameter("differential block out of range")
                space = elem.space
                a, b = sources[s], targets[t]
                if (space.setup is not self.setup
                        or space.m != b.twist - a.twist
                        or space.rho_index != a.irrep
                        or space.sigma_index != b.irrep):
                    raise BasisMismatch(
                        f"differential block ({t},{s}) at degree {degree} "
                        "lives in the wrong morphism space")
        for degree in self.diffs:
            if degree + 1 not in self.diffs:
                continue
            middle = range(len(self.terms[degree + 1]))
            for s in range(len(self.terms[degree])):
                for u in range(len(self.terms[degree + 2])):
                    if _composite_sum((self.diff_block(degree, t, s),
                                       self.diff_block(degree + 1, u, t))
                                      for t in middle) is not None:
                        raise InvalidParameter(
                            f"d following d is nonzero at degree {degree}, "
                            f"source {s}, target {u}")

    def diff_block(self, degree: int, t: int, s: int) -> HomElement | None:
        return self.diffs.get(degree, {}).get((t, s))

    @property
    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def summands(self):
        for degree in self.degrees:
            for index, bundle in enumerate(self.terms[degree]):
                yield degree, index, bundle

    def is_line_bundle(self) -> bool:
        return len(self.terms) == 1 and len(next(iter(self.terms.values()))) == 1

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
        self.blocks = {}
        for degree, entry in blocks.items():
            kept = {key: val for key, val in entry.items() if val}
            if kept:
                self.blocks[int(degree)] = kept
        if check:
            self._validate()

    def block(self, degree: int, t: int, s: int) -> HomElement | None:
        return self.blocks.get(degree, {}).get((t, s))

    def _validate(self) -> None:
        C, D = self.source, self.target
        for degree, entry in self.blocks.items():
            if degree not in C.terms or degree not in D.terms:
                raise InvalidParameter(f"chain map block at empty degree {degree}")
            for (t, s), elem in entry.items():
                a = C.terms[degree][s]
                b = D.terms[degree][t]
                space = elem.space
                if (space.m != b.twist - a.twist or space.rho_index != a.irrep
                        or space.sigma_index != b.irrep):
                    raise BasisMismatch("chain map block in the wrong space")
        for degree in C.terms:
            if degree + 1 not in D.terms:
                continue
            for s in range(len(C.terms[degree])):
                for u in range(len(D.terms[degree + 1])):
                    down_then_across = _composite_sum(
                        (self.block(degree, t, s), D.diff_block(degree, u, t))
                        for t in range(len(D.terms.get(degree, ()))))
                    across_then_down = _composite_sum(
                        (C.diff_block(degree, sp, s), self.block(degree + 1, u, sp))
                        for sp in range(len(C.terms.get(degree + 1, ()))))
                    if down_then_across != across_then_down:
                        raise InvalidParameter(
                            "chain map does not commute with differentials")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(sorted(self.blocks))))


def _composite_sum(pairs) -> HomElement | None:
    """The sum of g o f over the (f, g) pairs in which both blocks exist;
    None when that sum is empty or zero."""
    total = None
    for f, g in pairs:
        if f is not None and g is not None:
            comp = compose_hom(f, g)
            total = comp if total is None else total + comp
    return total if total else None


def identity_chain_map(C: EqComplex) -> ChainMap:
    blocks = {}
    for degree, summands in C.terms.items():
        entry = {}
        for s, bundle in enumerate(summands):
            space = hom_space(C.setup, 0, bundle.irrep, bundle.irrep)
            entry[(s, s)] = space.identity_element()
        blocks[degree] = entry
    return ChainMap(C, C, blocks, check=False)


def compose_chain_maps(f: ChainMap, g: ChainMap) -> ChainMap:
    """g after f."""
    if f.target != g.source:
        raise BasisMismatch("chain maps do not compose")
    blocks = {}
    for degree in f.blocks:
        if degree not in g.blocks:
            continue
        entry = {}
        middle = range(len(f.target.terms[degree]))
        for s in range(len(f.source.terms[degree])):
            for u in range(len(g.target.terms[degree])):
                total = _composite_sum((f.block(degree, t, s), g.block(degree, u, t))
                                       for t in middle)
                if total is not None:
                    entry[(u, s)] = total
        if entry:
            blocks[degree] = entry
    return ChainMap(f.source, g.target, blocks, check=False)


class _Slice:
    __slots__ = ("p", "s", "t", "space", "offset")

    def __init__(self, p, s, t, space, offset):
        self.p = p
        self.s = s
        self.t = t
        self.space = space
        self.offset = offset


class HomComplexData:
    """The complex Hom^k = sum over p of Hom(C^p, D^(p+k)), with exact
    differentials delta(f) = d_D o f - (-1)^k f o d_C."""

    def __init__(self, C: EqComplex, D: EqComplex):
        if C.setup is not D.setup:
            raise BasisMismatch("complexes over different setups")
        self.setup = C.setup
        self.source = C
        self.target = D
        n = self.setup.n
        for _, _, a in C.summands():
            for _, _, b in D.summands():
                if b.twist - a.twist < -n:
                    raise WindowViolation(
                        f"pair of twists ({a.twist}, {b.twist}) admits higher "
                        "Ext classes that the Hom complex cannot see")
        c_degrees = C.degrees
        d_degrees = D.degrees
        self.slices: dict[int, list[_Slice]] = {}
        self.dims: dict[int, int] = {}
        for k in range(d_degrees[0] - c_degrees[-1], d_degrees[-1] - c_degrees[0] + 1):
            slices = []
            offset = 0
            for p in c_degrees:
                if p + k not in D.terms:
                    continue
                for s, a in enumerate(C.terms[p]):
                    for t, b in enumerate(D.terms[p + k]):
                        m = b.twist - a.twist
                        if m < 0:
                            continue
                        space = hom_space(self.setup, m, a.irrep, b.irrep)
                        if len(space):
                            slices.append(_Slice(p, s, t, space, offset))
                            offset += len(space)
            if slices:
                self.slices[k] = slices
                self.dims[k] = offset
        self._deltas: dict[int, CycMatrix | None] = {}
        self._ranks: dict[int, int] = {}

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def _slice_for(self, k: int, p: int, s: int, t: int) -> _Slice | None:
        for sl in self.slices.get(k, ()):
            if sl.p == p and sl.s == s and sl.t == t:
                return sl
        return None

    def delta(self, k: int) -> CycMatrix | None:
        """Matrix of delta^k, or None when source or target space is zero."""
        if k in self._deltas:
            return self._deltas[k]
        rows_n = self.dim(k + 1)
        cols_n = self.dim(k)
        if rows_n == 0 or cols_n == 0:
            self._deltas[k] = None
            return None
        sign = 1 if k % 2 == 0 else -1
        D, C = self.target, self.source
        columns = []
        for sl in self.slices[k]:
            for f in sl.space.basis:
                column = [CycNum.zero()] * rows_n
                q = sl.p + k
                # post-compose with the target differential
                for u in range(len(D.terms.get(q + 1, ()))):
                    g = D.diff_block(q, u, sl.t)
                    if g is None:
                        continue
                    out = self._slice_for(k + 1, sl.p, sl.s, u)
                    if out is None:
                        continue
                    for i, c in enumerate(out.space.coordinates_of(compose_hom(f, g))):
                        column[out.offset + i] = column[out.offset + i] + c
                # pre-compose with the source differential
                for sp in range(len(C.terms.get(sl.p - 1, ()))):
                    e = C.diff_block(sl.p - 1, sl.s, sp)
                    if e is None:
                        continue
                    out = self._slice_for(k + 1, sl.p - 1, sp, sl.t)
                    if out is None:
                        continue
                    comp = compose_hom(e, f)
                    for i, c in enumerate(out.space.coordinates_of(comp)):
                        column[out.offset + i] = column[out.offset + i] - c * sign
                columns.append(column)
        matrix = CycMatrix([[columns[j][i] for j in range(cols_n)]
                            for i in range(rows_n)])
        self._deltas[k] = matrix
        return matrix

    def rank(self, k: int) -> int:
        if k not in self._ranks:
            matrix = self.delta(k)
            self._ranks[k] = 0 if matrix is None else matrix.rank()
        return self._ranks[k]

    def ext_dims(self) -> dict[int, int]:
        out = {}
        for k, dim in self.dims.items():
            h = dim - self.rank(k) - self.rank(k - 1)
            if h:
                out[k] = h
        return out

    def _kernel_vectors(self, k: int) -> list[tuple[CycNum, ...]]:
        dim = self.dim(k)
        matrix = self.delta(k)
        if matrix is None:
            unit = []
            for i in range(dim):
                v = [CycNum.zero()] * dim
                v[i] = CycNum.one()
                unit.append(tuple(v))
            return unit
        return matrix.kernel_basis()

    def _image_vectors(self, k: int) -> list[tuple[CycNum, ...]]:
        matrix = self.delta(k)
        if matrix is None:
            return []
        cols = [tuple(matrix.rows[i][j] for i in range(matrix.nrows))
                for j in range(matrix.ncols)]
        return [c for c in cols if any(c)]

    def h0_vectors(self) -> list[tuple[CycNum, ...]]:
        """Cycle representatives of a basis of H^0, by echelon lifting:
        kernel vectors reduced against the boundary space, kept when they
        add rank, normalized to leading coefficient 1."""
        span, _ = rref_rows(self._image_vectors(-1))
        span = list(span)
        reps = []
        for v in self._kernel_vectors(0):
            v = list(v)
            for row in span:
                lead = next(i for i, c in enumerate(row) if c)
                if v[lead]:
                    factor = v[lead]
                    v = [a - factor * b for a, b in zip(v, row)]
            if not any(v):
                continue
            lead = next(i for i, c in enumerate(v) if c)
            inv = v[lead].inverse()
            v = tuple(c * inv for c in v)
            reps.append(v)
            span, _ = rref_rows(span + [v])
        return reps

    def chain_map_from_vector(self, vector) -> ChainMap:
        if len(vector) != self.dim(0):
            raise InvalidParameter("vector length does not match Hom^0")
        blocks: dict[int, dict] = {}
        for sl in self.slices.get(0, ()):
            total = None
            for i, base in enumerate(sl.space.basis):
                c = vector[sl.offset + i]
                if c:
                    part = base * c
                    total = part if total is None else total + part
            if total is not None and total:
                blocks.setdefault(sl.p, {})[(sl.t, sl.s)] = total
        return ChainMap(self.source, self.target, blocks)

    def vector_from_chain_map(self, cm: ChainMap) -> tuple[CycNum, ...]:
        if cm.source != self.source or cm.target != self.target:
            raise BasisMismatch("chain map belongs to a different Hom complex")
        vector = [CycNum.zero()] * self.dim(0)
        covered = set()
        for sl in self.slices.get(0, ()):
            covered.add((sl.p, sl.t, sl.s))
            elem = cm.block(sl.p, sl.t, sl.s)
            if elem is None:
                continue
            for i, c in enumerate(sl.space.coordinates_of(elem)):
                vector[sl.offset + i] = c
        for degree, entry in cm.blocks.items():
            for key in entry:
                if (degree, *key) not in covered:
                    raise BasisMismatch(
                        "chain map has a block in a zero morphism space")
        return tuple(vector)

    def h0_coordinates(self, cm: ChainMap) -> tuple[CycNum, ...]:
        """Coefficients of a cycle over h0_vectors, modulo boundaries."""
        reps = self.h0_vectors()
        boundary = self._image_vectors(-1)
        vector = self.vector_from_chain_map(cm)
        columns = [list(r) for r in reps] + [list(b) for b in boundary]
        if not columns:
            if any(vector):
                raise BasisMismatch("nonzero map in a zero cohomology space")
            return ()
        matrix = CycMatrix([[columns[j][i] for j in range(len(columns))]
                            for i in range(self.dim(0))])
        sol = matrix.solve(list(vector))
        if sol is None:
            raise BasisMismatch("map is not a cycle in the given Hom complex")
        return tuple(sol[: len(reps)])


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


def cohomology_basis(C: EqComplex, D: EqComplex, degree: int = 0) -> list[ChainMap]:
    if degree != 0:
        raise InvalidParameter("only degree-0 representatives are supported")
    data = HomComplexData(C, D)
    return [data.chain_map_from_vector(v) for v in data.h0_vectors()]


def _evaluation_maps(E: EqComplex, F: EqComplex) -> list[ChainMap]:
    """A basis of Hom(E, F), which must be concentrated in degree 0; empty
    when the pair is orthogonal."""
    dims = pair_ext_dims(E, F)
    stray = {k: v for k, v in dims.items() if k != 0}
    if stray:
        raise NonConcentratedHom(
            f"Hom complex has cohomology in degrees {sorted(stray)}")
    h = dims.get(0, 0)
    if h == 0:
        return []
    maps = cohomology_basis(E, F, 0)
    if len(maps) != h:
        raise BasisMismatch(
            f"{len(maps)} cohomology representatives for a Hom of dimension {h}")
    return maps


def right_mutation(E: EqComplex, F: EqComplex) -> EqComplex:
    """Move F leftward past E: E is replaced by the cone gluing h copies of
    F one degree above E via the evaluation maps, h = dim Hom(E, F).  When
    the pair is orthogonal the operation is a pure transposition and E is
    returned unchanged."""
    maps = _evaluation_maps(E, F)
    if not maps:
        return E
    h = len(maps)
    terms: dict[int, tuple] = {}
    f_offset: dict[int, int] = {}
    for degree in set(E.degrees) | {d + 1 for d in F.degrees}:
        e_part = E.terms.get(degree, ())
        f_part = F.terms.get(degree - 1, ())
        f_offset[degree] = len(e_part)
        combined = tuple(e_part) + tuple(f_part) * h
        if combined:
            terms[degree] = combined
    diffs: dict[int, dict] = {}

    def put(degree, t, s, elem):
        diffs.setdefault(degree, {})[(t, s)] = elem

    for degree, blocks in E.diffs.items():
        for (t, s), elem in blocks.items():
            put(degree, t, s, elem)
    f_sizes = {d: len(F.terms[d]) for d in F.terms}
    for degree, blocks in F.diffs.items():
        size_src = f_sizes[degree]
        size_tgt = f_sizes[degree + 1]
        for (t, s), elem in blocks.items():
            for copy in range(h):
                put(degree + 1,
                    f_offset[degree + 2] + copy * size_tgt + t,
                    f_offset[degree + 1] + copy * size_src + s,
                    -elem)
    for copy, phi in enumerate(maps):
        for degree, entry in phi.blocks.items():
            size_tgt = f_sizes[degree]
            for (t, s), elem in entry.items():
                put(degree, f_offset[degree + 1] + copy * size_tgt + t, s, elem)
    return EqComplex(E.setup, terms, diffs)


def left_mutation(E: EqComplex, F: EqComplex) -> EqComplex:
    """Move E rightward past F: F is replaced by the cone under h copies of
    E one degree below, glued by the coevaluation maps.  Orthogonal pairs
    transpose and return F unchanged."""
    maps = _evaluation_maps(E, F)
    if not maps:
        return F
    h = len(maps)
    terms: dict[int, tuple] = {}
    f_offset: dict[int, int] = {}
    for degree in set(F.degrees) | {d - 1 for d in E.degrees}:
        e_part = E.terms.get(degree + 1, ())
        f_part = F.terms.get(degree, ())
        combined = tuple(e_part) * h + tuple(f_part)
        f_offset[degree] = len(e_part) * h
        if combined:
            terms[degree] = combined
    diffs: dict[int, dict] = {}

    def put(degree, t, s, elem):
        diffs.setdefault(degree, {})[(t, s)] = elem

    e_sizes = {d: len(E.terms[d]) for d in E.terms}
    for degree, blocks in E.diffs.items():
        size_src = e_sizes[degree]
        size_tgt = e_sizes[degree + 1]
        for (t, s), elem in blocks.items():
            for copy in range(h):
                put(degree - 1,
                    copy * size_tgt + t,
                    copy * size_src + s,
                    -elem)
    for degree, blocks in F.diffs.items():
        for (t, s), elem in blocks.items():
            put(degree, f_offset[degree + 1] + t, f_offset[degree] + s, elem)
    for copy, phi in enumerate(maps):
        for degree, entry in phi.blocks.items():
            size_src = e_sizes[degree]
            for (t, s), elem in entry.items():
                put(degree - 1, f_offset[degree] + t, copy * size_src + s, elem)
    return EqComplex(E.setup, terms, diffs)
