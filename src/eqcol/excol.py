"""Exceptional collections: construction, mutation pipelines, extraction.

An ExcCollection is an ordered tuple of equivariant complexes with aligned
K-classes and labels.  Every operation that changes the list appends a
provenance entry; steps that mix objects also record the integer base-change
matrix U (columns express the new K-classes in the old ones), and the Gram
update G -> U^T G U is checked against a recomputed Euler pairing on the
spot.  replay_gram() re-runs the whole trail from the recorded entries alone,
so a finished collection can be audited without trusting the builders.

A step changes few classes, so U differs from the identity in few columns,
passed as {column: {row: value}} without zeros: each step hands them to
_Workbench._record, replay_gram reads them back from the dense rows, and
both check and conjugate with them alone (_unimodular, _conjugate_columns).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (EqLineBundle, KClass, _basis_pairing, euler_pairing,
                         twist_kclass)
from .complexes import (EqComplex, cohomology_basis, compose_chain_maps,
                        from_line_bundle, hom_complex, pair_ext_dims,
                        right_mutation)
from .cyclotomic import CycNum
from .errors import (CertificateFailure, InvalidParameter, NotADivisor,
                     NotStrong, OrthogonalityFailure)
from .linalg import CycMatrix, _dense, rank_of_rows
from .reps import Setup


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    violation: str | None = None


class ExcCollection:
    """An ordered collection of equivariant complexes."""

    __slots__ = ("setup", "objects", "kclasses", "labels", "provenance",
                 "_gram", "_known")

    def __init__(self, setup: Setup, objects, kclasses, labels, provenance):
        self.setup = setup
        self.objects = tuple(objects)
        self.kclasses = tuple(kclasses)
        self.labels = tuple(labels)
        self.provenance = tuple(provenance)
        if not (len(self.objects) == len(self.kclasses) == len(self.labels)):
            raise InvalidParameter("collection fields out of step")
        for obj, kc in zip(self.objects, self.kclasses):
            if not isinstance(obj, EqComplex):
                raise InvalidParameter(f"collection object {obj!r} is not a complex")
            if obj.kclass() != kc:
                raise InvalidParameter("stored K-class disagrees with the complex")
        self._gram = None
        self._known = {}

    def __len__(self) -> int:
        return len(self.objects)

    def ext_table(self, i: int, j: int) -> dict[int, int]:
        """Ext dimensions from object i to object j, memoized per pair of
        objects by `_by_triangles`.

        `_by_triangles` decides every table it can: the closed form of two
        line bundles, or one derived from the mutation triangles.  Every
        other pair takes its Hom complex.  Each table but the closed form's
        must have the Euler characteristic of Gram entry (i, j), or
        CertificateFailure is raised."""
        X, Y = self.objects[i], self.objects[j]
        table = self._by_triangles(X, Y)
        if table is None:
            table = self._known[(id(X), id(Y))] = pair_ext_dims(X, Y)
        if (not (X.is_line_bundle() and Y.is_line_bundle())
                and _euler_characteristic(table) != self.gram_matrix()[i][j]):
            raise CertificateFailure(
                f"Ext {self.labels[i]} -> {self.labels[j]} is"
                f" {_fmt_table(table)} against the Gram entry"
                f" {self.gram_matrix()[i][j]}")
        return table

    def _by_triangles(self, X: EqComplex, Y: EqComplex) -> dict[int, int] | None:
        """The Ext table from X to Y when it is known without a new Hom
        complex, else None.  It is memoized by object identity, which
        neither hashes a complex nor compares two: every object reached is
        held by the collection or by the triangle of an object it holds,
        so no id is reused while the memo lives.

        A table is known from the closed form for two line bundles, from an
        earlier table of the collection, or from the triangle
        R -> E -> sum_k F[k] tensor W_k -> R[1] of a right-mutation cone R,
        with W_k = Ext^k(E, F)^* and the evaluation maps a basis of each
        Hom(E, F[k]) (Bondal's mutation lemma; Bondal 1989,
        Gorodentsev-Rudakov 1987):
        - Ext(R, F) = 0 when F is exceptional, since precomposition with
          the evaluation is then an isomorphism from
          Hom(sum_k F[k] tensor W_k, F[j]) = W_j^* to Hom(E, F[j]) for every j;
        - Ext(R, R) = k when E and F are exceptional and Ext(F, E) = 0, by
          Ext(R, R) = Ext(R, E) = Ext(E, E), each F[k] being orthogonal;
        - Ext(X, R) = 0 when Ext(X, E) = Ext(X, F) = 0, and Ext(R, Y) = 0
          when Ext(E, Y) = Ext(F, Y) = 0, by the long exact sequences."""
        key = (id(X), id(Y))
        if key in self._known:
            return self._known[key]
        known = self._by_triangles
        table = None
        if X.is_line_bundle() and Y.is_line_bundle():
            table = pair_ext_dims(X, Y)
        elif X is Y:
            if X.triangle is not None:
                E, F = X.triangle
                if (known(E, E) == {0: 1} and known(F, F) == {0: 1}
                        and known(F, E) == {}):
                    table = {0: 1}
        elif X.triangle is not None and X.triangle[1] is Y:
            if known(Y, Y) == {0: 1}:
                table = {}
        elif ((Y.triangle is not None
               and all(known(X, Z) == {} for Z in Y.triangle))
              or (X.triangle is not None
                  and all(known(Z, Y) == {} for Z in X.triangle))):
            table = {}
        self._known[key] = table
        return table

    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._gram is None:
            self._gram = _euler_gram(self.kclasses)
        return self._gram

    def subset(self, kept, entry: dict) -> "ExcCollection":
        kept = list(kept)
        if not _is_index_list(kept, len(self)):
            raise InvalidParameter("subset kept is not a list of indices, each once")
        return ExcCollection(
            self.setup,
            [self.objects[i] for i in kept],
            [self.kclasses[i] for i in kept],
            [self.labels[i] for i in kept],
            list(self.provenance) + [dict(entry, kept=kept)],
        )

    def warnings(self) -> list[dict]:
        return [e for e in self.provenance if e.get("op") == "warning"]


def _euler_gram(kclasses) -> tuple[tuple[int, ...], ...]:
    """All Euler pairings at once, as the two integer products K^T (B K):
    the columns of K are the K-class coefficient vectors and B is the
    pairing of basis classes."""
    if not kclasses:
        return ()
    setup = kclasses[0].setup
    if any(kc.setup is not setup for kc in kclasses):
        raise InvalidParameter("pairing of K-classes over different setups")
    rows = [kc.coeffs for kc in kclasses]
    columns = [list(col) for col in zip(*rows)]
    gram = _int_product(rows, _int_product(_basis_pairing(setup), columns))
    return tuple(tuple(row) for row in gram)


def _euler_characteristic(table: dict[int, int]) -> int:
    return sum(-dim if k % 2 else dim for k, dim in table.items())


def is_unitriangular(gram) -> bool:
    for i, row in enumerate(gram):
        if row[i] != 1:
            return False
        if any(row[j] for j in range(i)):
            return False
    return True


# -- construction -------------------------------------------------------


def beilinson_collection(setup: Setup) -> ExcCollection:
    """All O(i) tensor rho_j for 0 <= i <= n, twist-major then irrep order."""
    objects, kclasses, labels = [], [], []
    for i in range(setup.n_plus_1):
        for j in range(setup.r_plus_1):
            bundle = EqLineBundle(i, j)
            objects.append(from_line_bundle(setup, bundle))
            kclasses.append(KClass.basis(setup, i, j))
            labels.append(bundle.label(setup))
    entry = {
        "op": "beilinson",
        "n_plus_1": setup.n_plus_1,
        "r_plus_1": setup.r_plus_1,
        "gram": [list(row) for row in _euler_gram(kclasses)],
    }
    return ExcCollection(setup, objects, kclasses, labels, [entry])


# -- reports ------------------------------------------------------------


def check_exceptional(coll: ExcCollection) -> CheckReport:
    """Each object exceptional, and all backward Ext spaces zero."""
    for i in range(len(coll)):
        table = coll.ext_table(i, i)
        if table != {0: 1}:
            return CheckReport(
                False, f"{coll.labels[i]} has self-Ext {_fmt_table(table)}")
    for b in range(len(coll)):
        for a in range(b):
            table = coll.ext_table(b, a)
            if table:
                return CheckReport(
                    False,
                    f"backward Ext {coll.labels[b]} -> {coll.labels[a]}"
                    f" is {_fmt_table(table)}")
    return CheckReport(True, None)


def check_strong(coll: ExcCollection) -> CheckReport:
    """Forward Ext spaces concentrated in degree zero."""
    for a in range(len(coll)):
        for b in range(a + 1, len(coll)):
            table = coll.ext_table(a, b)
            stray = {k: v for k, v in table.items() if k != 0}
            if stray:
                return CheckReport(
                    False,
                    f"Ext {coll.labels[a]} -> {coll.labels[b]} not concentrated"
                    f" in degree 0: {_fmt_table(stray)}")
    return CheckReport(True, None)


def _fmt_table(table: dict[int, int]) -> str:
    return "{" + ", ".join(f"{k}: {table[k]}" for k in sorted(table)) + "}"


# -- the pair-mutation engine -------------------------------------------


class _Workbench:
    """List-backed state shared by the mutation pipelines.  Each step
    verifies the columns its base change moves against a Gram matrix
    recomputed from the new K-classes before it is trusted.  The entries
    store base changes as dense rows; each unit row is one shared tuple.

    The recomputation is incremental.  _audited is the Euler Gram matrix of
    the classes _seen, the K-class objects of the last audit, and _supports
    holds their nonzero coefficients.  A step refreshes the rows and
    columns of _audited whose class is a changed column of U or is not
    the object last audited; every other entry pairs the same two objects
    as before, so _audited is again the full Euler Gram matrix, and
    comparing it with U^T G U is the full audit."""

    def __init__(self, coll: ExcCollection):
        self.setup = coll.setup
        self.objects = list(coll.objects)
        self.kclasses = list(coll.kclasses)
        self.labels = list(coll.labels)
        self.provenance = list(coll.provenance)
        self.gram = [list(row) for row in coll.gram_matrix()]
        self._audited = [list(row) for row in self.gram]
        self._seen = list(self.kclasses)
        self._supports = [_support(kc) for kc in self.kclasses]
        size = len(self.kclasses)
        self._unit_rows = [tuple(int(i == j) for j in range(size))
                           for i in range(size)]

    def freeze(self) -> ExcCollection:
        return ExcCollection(self.setup, self.objects, self.kclasses,
                             self.labels, self.provenance)

    def _record(self, entry: dict, moved: dict) -> None:
        """Audit the step whose base change differs from the identity in
        the columns `moved` and append entry to the trail, with the base
        change stored as dense rows."""
        if not _unimodular(moved):
            raise InvalidParameter("base change is not unimodular")
        changed = set(moved)
        changed.update(i for i, (kc, seen) in enumerate(
            zip(self.kclasses, self._seen)) if kc is not seen)
        for i in changed:
            if self.kclasses[i].setup is not self.setup:
                raise InvalidParameter(
                    "pairing of K-classes over different setups")
            self._supports[i] = _support(self.kclasses[i])
        self._seen = list(self.kclasses)
        _refresh_pairings(self._audited, self._supports, sorted(changed),
                          _basis_pairing(self.setup))
        _conjugate_columns(self.gram, moved)
        if self.gram != self._audited:
            raise InvalidParameter("Gram conjugation audit failed")
        rows = list(self._unit_rows)
        for i in {i for c, col in moved.items() for i in (c, *col)
                  if col.get(i, 0) != (i == c)}:
            row = list(rows[i])
            for c, col in moved.items():
                row[c] = col.get(i, 0)
            rows[i] = tuple(row)
        entry["base_change"] = rows
        self.provenance.append(entry)

    def move_left(self, p: int) -> None:
        """Move the object at position p one slot leftward; the bystander at
        p-1 is right-mutated past it (a pure transposition when the pair is
        orthogonal)."""
        Y, T = self.objects[p - 1], self.objects[p]
        chi = self.gram[p - 1][p]
        result = right_mutation(Y, T)
        self.objects[p - 1], self.objects[p] = T, result
        self.kclasses[p - 1], self.kclasses[p] = (
            self.kclasses[p], self.kclasses[p - 1] - self.kclasses[p] * chi)
        self.labels[p - 1], self.labels[p] = (
            self.labels[p], self.labels[p - 1] if result is Y else result.label())
        op = "transpose" if result is Y else "right_mutation"
        self._record({"op": op, "positions": [p - 1, p], "chi": chi},
                     {p - 1: {p: 1}, p: {p - 1: 1, p: -chi} if chi else {p - 1: 1}})

    def permute(self, perm, entry: dict) -> None:
        """Reorder by perm (new index -> old index); legitimate only for
        mutually orthogonal moves, which the caller has verified."""
        self.objects = [self.objects[i] for i in perm]
        self.kclasses = [self.kclasses[i] for i in perm]
        self.labels = [self.labels[i] for i in perm]
        self._record(dict(entry, permutation=list(perm)),
                     {new: {old: 1} for new, old in enumerate(perm) if new != old})

    def replace(self, updates: dict[int, tuple], entry: dict, moved) -> None:
        """Swap in new (object, kclass, label) triples at given positions
        with the base-change columns they move (helix rotations)."""
        for pos, (obj, kc, label) in updates.items():
            self.objects[pos] = obj
            self.kclasses[pos] = kc
            self.labels[pos] = label
        self._record(entry, moved)


def _support(kc: KClass) -> list[tuple[int, int]]:
    return [(a, c) for a, c in enumerate(kc.coeffs) if c]


def _refresh_pairings(gram, supports, lines, table) -> None:
    """Recompute rows and columns `lines` of the Euler Gram matrix in place:
    gram[s][j] = k_s^T B k_j over the nonzero coefficients (supports) of
    the classes, with B the basis pairing `table`."""
    dim = len(table)
    for s in lines:
        left, right = [0] * dim, [0] * dim
        for a, c in supports[s]:
            left = [x + c * y for x, y in zip(left, table[a])]
            right = [x + c * row[a] for x, row in zip(right, table)]
        row = gram[s]
        for j, kj in enumerate(supports):
            row[j] = sum([left[b] * d for b, d in kj])
            gram[j][s] = sum([d * right[b] for b, d in kj])


def _is_int(value) -> bool:
    """True for an integer, false for a bool: JSON true and false load as
    bool, a subclass of int, so the test is on the exact type."""
    return type(value) is int


def _is_index_list(kept, size: int) -> bool:
    """True for a list of distinct integers in range(size)."""
    return (isinstance(kept, list) and all(_is_int(i) and 0 <= i < size for i in kept)
            and len(set(kept)) == len(kept))


def _int_rows(U, size: int) -> bool:
    """Whether U is a size x size matrix of integers, given as rows: the
    test of `_is_int` on every entry, run over each row's types in C."""
    return isinstance(U, list) and len(U) == size and all(
        isinstance(row, (list, tuple)) and len(row) == size
        and {int}.issuperset(map(type, row)) for row in U)


def _moved_columns(U, size: int) -> dict[int, dict[int, int]] | None:
    """The columns in which the dense rows U differ from the identity, as
    {column: {row: value}} with the zeros dropped, or None when U is not a
    size x size integer matrix."""
    if not _int_rows(U, size):
        return None
    cols = set()
    for i, row in enumerate(U):
        if row[i] != 1 or row.count(0) != size - 1:
            cols.update(j for j, v in enumerate(row) if v != (i == j))
    return {c: {i: row[c] for i, row in enumerate(U) if row[c]}
            for c in sorted(cols)}


def _unimodular(moved: dict[int, dict[int, int]]) -> bool:
    """Whether U, the identity but in the columns `moved`, has determinant
    +-1.  Listing the unmoved columns first makes U block upper triangular
    with an identity block, so det U is that of its block on `moved`."""
    cols = list(moved)
    return not cols or abs(_int_det([[moved[c].get(r, 0) for c in cols]
                                     for r in cols])) == 1


def _conjugate_columns(gram, moved: dict[int, dict[int, int]]) -> None:
    """G <- U^T G U in place, where U differs from the identity only in the
    columns `moved`: only those rows and columns of G change."""
    n = len(gram)
    gu = {}  # the moved columns of G U
    rows = {}  # the moved rows of U^T G
    for c, col in moved.items():
        gcol, row = [0] * n, [0] * n
        for i, u in col.items():
            gcol = [x + u * g[i] for x, g in zip(gcol, gram)]
            row = [x + u * y for x, y in zip(row, gram[i])]
        gu[c] = gcol
        rows[c] = row
    for c, col in moved.items():
        for b in moved:
            rows[c][b] = sum([u * gu[b][i] for i, u in col.items()])
    for b, gcol in gu.items():
        for a, value in enumerate(gcol):
            gram[a][b] = value
    for c, row in rows.items():
        gram[c][:] = row


def _int_product(A, B):
    """A B for integer matrices given as row lists, skipping zero entries."""
    sparse = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    width = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * width
        for k, a in enumerate(row):
            if a:
                for j, b in sparse[k]:
                    acc[j] += a * b
        out.append(acc)
    return out


def _int_det(M) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division below is exact."""
    work = [list(row) for row in M]
    n = len(work)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        head = work[k]
        pk = head[k]
        for i in range(k + 1, n):
            row = work[i]
            a = row[k]
            if not a and pk == prev:
                continue
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - a * head[j]) // prev
        prev = pk
    return sign * work[n - 1][n - 1]


# -- cascade ------------------------------------------------------------


def cascade_mutation(coll: ExcCollection) -> ExcCollection:
    """Bubble every twist anchor O(k) tensor rho_0 leftward to position k,
    right-mutating the bystanders it passes.  On the full twist grid this
    collapses the anchors to the front in twist order; each bystander ends
    up mutated past exactly the anchors of higher twist, innermost first.
    """
    first = coll.provenance[0] if coll.provenance else {}
    if len(coll.provenance) != 1 or first.get("op") != "beilinson":
        raise InvalidParameter("cascade is defined on the full twist grid")
    n_plus_1 = first["n_plus_1"]
    r_plus_1 = first["r_plus_1"]
    if len(coll) != n_plus_1 * r_plus_1:
        raise InvalidParameter("cascade is defined on the full twist grid")
    bench = _Workbench(coll)
    for k in range(1, n_plus_1):
        pos = k * r_plus_1
        while pos > k:
            bench.move_left(pos)
            pos -= 1
    result = bench.freeze()
    anchors = [EqLineBundle(k, 0).label(coll.setup) for k in range(n_plus_1)]
    if list(result.labels[:n_plus_1]) != anchors:
        raise InvalidParameter("cascade did not surface the twist anchors")
    report = check_exceptional(result)
    if not report.passed:
        raise InvalidParameter(f"cascade output not exceptional: {report.violation}")
    return result


# -- Veronese weight blocks ---------------------------------------------


@dataclass(frozen=True)
class VeroneseBlocks:
    """Partition of a collection by the character of the scalar subgroup
    T_d; cross-block Ext vanishing is verified in all degrees."""

    collection: ExcCollection
    d: int
    e: int
    weights: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    pullback_weight: int

    def block_collection(self, weight: int) -> ExcCollection:
        if not 0 <= weight < self.e:
            raise InvalidParameter(f"weight {weight} is outside 0..{self.e - 1}")
        kept = list(self.blocks[weight])
        entry = {"op": "subset", "kind": "veronese_block",
                 "d": self.d, "weight": weight}
        return self.collection.subset(kept, entry)

    def pullback_collection(self) -> ExcCollection:
        return self.block_collection(self.pullback_weight)


def _object_weight(setup: Setup, obj: EqComplex, info) -> int:
    """Common T-weight of all summands; mixed weights mean the object
    straddles blocks and the partition does not exist."""
    weights = set()
    for _, _, bundle in obj.summands():
        c = setup.irrep_scalar_weight(bundle.irrep, info)
        weights.add((c - bundle.twist) % info.e)
    if len(weights) != 1:
        raise OrthogonalityFailure("object straddles weight blocks")
    return weights.pop()


def veronese_blocks(coll: ExcCollection, d: int) -> VeroneseBlocks:
    setup = coll.setup
    if setup.n_plus_1 % d:
        raise NotADivisor(f"{d} does not divide {setup.n_plus_1}")
    info = setup.central_scalars(d)
    weights = tuple(_object_weight(setup, obj, info) for obj in coll.objects)
    blocks = tuple(tuple(i for i, w in enumerate(weights) if w == target)
                   for target in range(info.e))
    for w1 in range(info.e):
        for w2 in range(info.e):
            if w1 == w2:
                continue
            for a in blocks[w1]:
                for b in blocks[w2]:
                    table = coll.ext_table(a, b)
                    if table:
                        raise OrthogonalityFailure(
                            f"Ext {coll.labels[a]} -> {coll.labels[b]}"
                            f" across blocks: {_fmt_table(table)}")
    try:
        pull = weights[coll.labels.index(EqLineBundle(0, 0).label(setup))]
    except ValueError:
        raise InvalidParameter("collection has no O@rho_0 object") from None
    return VeroneseBlocks(coll, d, info.e, weights, blocks, pull)


# -- singularity-category extraction ------------------------------------


def dsing_collection(setup: Setup, d: int, mode: str) -> ExcCollection:
    """Collection for the degree-d hypersurface singularity model.

    crossed_product: drop the first (n+1)/d twist layers of the full grid.
    invariant_veronese: take the pullback weight block, present it so the
    removal targets O(d*i) tensor rho_0 lead (helix rotation for scalar
    groups, cone-forming bubbling otherwise), then drop the targets.
    """
    if mode not in ("crossed_product", "invariant_veronese"):
        raise InvalidParameter(f"unknown extraction mode {mode!r}")
    if setup.n_plus_1 % d:
        raise NotADivisor(f"{d} does not divide {setup.n_plus_1}")
    a = setup.n_plus_1 // d
    base = beilinson_collection(setup)

    if mode == "crossed_product":
        kept = [i for i in range(len(base)) if i // setup.r_plus_1 >= a]
        result = base.subset(kept, {"op": "subset",
                                    "kind": "crossed_product_removal", "d": d})
        if len(result) != (setup.n_plus_1 - a) * setup.r_plus_1:
            raise InvalidParameter("crossed-product size formula violated")
        return result

    if not setup.det_trivial():
        raise InvalidParameter(
            "invariant mode needs a determinant-trivial action")

    blocks = veronese_blocks(base, d)
    pullback = blocks.pullback_collection()
    if len(pullback) * blocks.e != len(base):
        raise InvalidParameter("pullback block size formula violated")
    warning = {
        "op": "warning", "code": "FreenessNotChecked",
        "message": ("the group action is assumed free away from the origin;"
                    " this is not verified"),
    }
    bench = _Workbench(ExcCollection(setup, pullback.objects,
                                     pullback.kclasses, pullback.labels,
                                     list(pullback.provenance) + [warning]))
    targets = [EqLineBundle(d * i, 0).label(setup) for i in range(a)]
    for label in targets:
        if label not in bench.labels:
            raise InvalidParameter(f"target {label} missing from the block")

    scalar_full = (setup.group.is_scalar()
                   and setup.central_scalars(setup.n_plus_1).e == setup.n_plus_1)
    if scalar_full:
        _helix_present(bench, veronese_blocks(pullback, setup.n_plus_1),
                       targets)

    for t, label in enumerate(targets):
        pos = bench.labels.index(label)
        if pos < t:
            raise InvalidParameter("removal targets crossed each other")
        while pos > t:
            bench.move_left(pos)
            pos -= 1

    staged = bench.freeze()
    if list(staged.labels[:a]) != targets:
        raise InvalidParameter("removal targets failed to surface")
    result = staged.subset(range(a, len(staged)),
                           {"op": "subset", "kind": "orlov_removal", "d": d})
    if len(result) != len(base) // blocks.e - a:
        raise InvalidParameter("invariant-extraction size formula violated")
    return result


def _helix_present(bench: _Workbench, rows: VeroneseBlocks,
                   targets: list[str]) -> None:
    """For a full scalar group, sort the pullback block into `rows`, its
    blocks by the weight of the whole scalar group, whose cross-row Ext
    vanishing `veronese_blocks` verified; then rotate each row holding a
    removal target so the target leads.  Objects wrapped around the end
    pick up a twist by O(n+1).  All moves stay inside the recorded
    base-change trail."""
    order = [i for block in rows.blocks for i in block]
    if order != list(range(len(order))):
        bench.permute(order, {"op": "block_sort",
                              "weights": sorted(rows.weights)})
    start = 0
    for w, block in enumerate(rows.blocks):
        positions = list(range(start, start + len(block)))
        start += len(block)
        lead = next((k for k, pos in enumerate(positions)
                     if bench.labels[pos] in targets), None)
        if lead:
            _rotate_row(bench, positions, lead, w)


def _rotate_row(bench: _Workbench, positions: list[int], lead: int,
                weight: int) -> None:
    setup = bench.setup
    shift = setup.n_plus_1
    old_kclasses = list(bench.kclasses)
    old_gram = bench.gram
    serre_sign = -1 if setup.n % 2 else 1

    updates = {}
    columns = {}
    length = len(positions)
    for k in range(length):
        pos = positions[k]
        src = positions[(k + lead) % length]
        if k + lead < length:
            updates[pos] = (bench.objects[src], bench.kclasses[src],
                            bench.labels[src])
            columns[pos] = {src: 1}
        else:
            obj = bench.objects[src].twisted(shift)
            kc = twist_kclass(bench.kclasses[src], shift)
            # K-theoretic Serre duality for a determinant-trivial action,
            # chi(E(n+1), F) = (-1)^n chi(F, E), audits the reduced twist
            # against every old class
            if any(euler_pairing(kc, b) != serre_sign * old_gram[i][src]
                   for i, b in enumerate(old_kclasses)):
                raise InvalidParameter(
                    f"twisted {obj.label()} violates Serre duality")
            updates[pos] = (obj, kc, obj.label())
            columns[pos] = {i: v for i, v in enumerate(
                _integral_coordinates(kc, old_kclasses)) if v}

    bench.replace(updates, {"op": "helix_rotate", "weight": weight,
                            "shift": lead,
                            "positions": list(positions)}, columns)


def _integral_coordinates(kc: KClass, basis: list[KClass]) -> list[int]:
    """kc as an integer combination of the given K-classes."""
    setup = kc.setup
    dim = setup.n_plus_1 * setup.r_plus_1
    matrix = CycMatrix([[CycNum.from_rat(basis[j].coeffs[i])
                         for j in range(len(basis))] for i in range(dim)])
    sol = matrix.solve([CycNum.from_rat(c) for c in kc.coeffs])
    if sol is None:
        raise InvalidParameter("twisted class left the block lattice")
    out = []
    for v in sol:
        rat = v.as_rat()
        if rat.denominator != 1:
            raise InvalidParameter("twisted class is not an integral combination")
        out.append(int(rat))
    return out


# -- quivers ------------------------------------------------------------


@dataclass(frozen=True)
class Quiver:
    labels: tuple[str, ...]
    hom_dims: tuple[tuple[int, ...], ...]
    arrows: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]


def quiver(coll: ExcCollection) -> Quiver:
    """Arrows i -> j count a basis of Hom(E_i, E_j) modulo the span of all
    compositions through intermediate objects; requires a strong collection.

    The compositions are taken only through the middles k with an arrow
    i -> k.  Their span rad^2(i, j), the sum over i < k < j of
    Hom(k, j) o Hom(i, k), is the same: Hom(i, k) is spanned by arrows and
    by rad^2(i, k), a sum of Hom(k', k) o Hom(i, k') over i < k' < k, so
    Hom(k, j) o Hom(i, k) lies in the sum of the terms for k' < k whenever
    i -> k has no arrow.  By induction on k, the terms over the k with an
    arrow span the terms over all k.  The arrows out of i are counted with
    j ascending, so those to every k < j are known when j is reached."""
    exc = check_exceptional(coll)
    if not exc.passed:
        raise NotStrong(f"not exceptional: {exc.violation}")
    strong = check_strong(coll)
    if not strong.passed:
        raise NotStrong(strong.violation)

    size = len(coll)
    hom = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            hom[i][j] = coll.ext_table(i, j).get(0, 0)

    bases: dict[tuple[int, int], list] = {}

    def basis(i: int, k: int) -> list:
        """H^0 basis of Hom(E_i, E_k), built once per pair."""
        if (i, k) not in bases:
            bases[(i, k)] = cohomology_basis(coll.objects[i], coll.objects[k])
        return bases[(i, k)]

    arrows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if not hom[i][j]:
                continue
            middles = [k for k in range(i + 1, j) if arrows[i][k] and hom[k][j]]
            if not middles:
                arrows[i][j] = hom[i][j]
                continue
            data = hom_complex(coll.objects[i], coll.objects[j])
            rows = []
            for k in middles:
                for f in basis(i, k):
                    for g in basis(k, j):
                        composite = compose_chain_maps(f, g)
                        rows.append(data.h0_coordinates(composite))
            # dense rows only because perfbench/tracer.py hooks CycMatrix.rank
            arrows[i][j] = hom[i][j] - rank_of_rows(
                [_dense(row, hom[i][j]) for row in rows])

    seen = [False] * size
    components = []
    for start in range(size):
        if seen[start]:
            continue
        comp, queue = [], [start]
        seen[start] = True
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in range(size):
                if not seen[w] and (arrows[v][w] or arrows[w][v]):
                    seen[w] = True
                    queue.append(w)
        components.append(tuple(sorted(comp)))

    return Quiver(coll.labels,
                  tuple(tuple(row) for row in hom),
                  tuple(tuple(row) for row in arrows),
                  tuple(components))


# -- twisting ------------------------------------------------------------


def tensor_twist(coll: ExcCollection, k: int) -> ExcCollection:
    """Tensor every object with O(k).  Ext tables between objects are
    untouched; K-classes are re-reduced into the twist window."""
    objects = [obj.twisted(k) for obj in coll.objects]
    kclasses = [twist_kclass(kc, k) for kc in coll.kclasses]
    labels = [obj.label() for obj in objects]
    entry = {"op": "tensor_twist", "k": k}
    result = ExcCollection(coll.setup, objects, kclasses, labels,
                           list(coll.provenance) + [entry])
    if result.gram_matrix() != coll.gram_matrix():
        raise InvalidParameter("twist changed the Gram matrix")
    return result


# -- audit ---------------------------------------------------------------


def replay_gram(provenance) -> tuple[tuple[int, ...], ...]:
    """Recompute the final Gram matrix from the provenance trail alone:
    start from the recorded base Gram and fold in every base change and
    subset.  Unimodularity of each step is re-checked; both the check and
    the conjugation touch only the columns read back from its dense rows.
    An entry it cannot check (not a dict, a base Gram or base change that
    is not a square integer matrix of the right size, a `kept` that repeats
    or leaves the Gram's indices) raises an InvalidParameter naming it."""
    gram = None
    for index, entry in enumerate(provenance):
        if not isinstance(entry, dict):
            raise InvalidParameter(f"provenance entry {index} is not a dict")
        op = entry.get("op")
        if op == "beilinson":
            base = entry.get("gram")
            if not (isinstance(base, list) and _int_rows(base, len(base))):
                raise InvalidParameter(
                    "beilinson base Gram is not a square integer matrix")
            gram = [list(row) for row in base]
        elif op in ("tensor_twist", "warning"):
            continue
        elif op not in ("subset", "transpose", "right_mutation",
                        "kclass_fallback", "block_sort", "helix_rotate"):
            raise InvalidParameter(f"unknown provenance op {op!r}")
        elif gram is None:
            break
        elif op == "subset":
            kept = entry.get("kept")
            if not _is_index_list(kept, len(gram)):
                raise InvalidParameter(
                    "subset kept is not a list of Gram indices, each once")
            gram = [[gram[i][j] for j in kept] for i in kept]
        else:
            moved = _moved_columns(entry.get("base_change"), len(gram))
            if moved is None:
                raise InvalidParameter(f"{op} base change does not fit the Gram"
                                       f" as a {len(gram)} x {len(gram)} integer matrix")
            if not _unimodular(moved):
                raise InvalidParameter(f"non-unimodular base change in {op}")
            _conjugate_columns(gram, moved)
    if gram is None:
        raise InvalidParameter("provenance has no base Gram")
    return tuple(tuple(row) for row in gram)
