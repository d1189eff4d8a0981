"""Exceptional collections: construction, mutation pipelines, extraction.

An ExcCollection is an ordered tuple of equivariant complexes with aligned
K-classes and labels.  Every operation that changes the list appends a
provenance entry; steps that mix objects also record the integer base-change
matrix U (columns express the new K-classes in the old ones), and the Gram
update G -> U^T G U is checked against a recomputed Euler pairing on the
spot.  replay_gram() re-runs the whole trail from the recorded entries alone,
so a finished collection can be audited without trusting the builders.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (EqLineBundle, KClass, euler_pairing, twist_kclass)
from .complexes import (EqComplex, cohomology_basis, compose_chain_maps,
                        from_line_bundle, hom_complex, pair_ext_dims,
                        right_mutation)
from .cyclotomic import CycNum
from .errors import (InvalidParameter, NonConcentratedHom, NotADivisor,
                     NotStrong, OrthogonalityFailure)
from .linalg import CycMatrix, rank_of_rows
from .reps import Setup


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    violation: str | None = None


class ExcCollection:
    """An ordered collection of equivariant complexes.

    objects may contain None entries: K-class-only stubs left behind when a
    mutation step could not be realized on the nose.  Stubs still carry a
    K-class and a label, so Gram bookkeeping survives, but Ext tables and
    quivers are unavailable for them.
    """

    __slots__ = ("setup", "objects", "kclasses", "labels", "provenance",
                 "_ext_cache", "_gram")

    def __init__(self, setup: Setup, objects, kclasses, labels, provenance):
        self.setup = setup
        self.objects = tuple(objects)
        self.kclasses = tuple(kclasses)
        self.labels = tuple(labels)
        self.provenance = tuple(provenance)
        if not (len(self.objects) == len(self.kclasses) == len(self.labels)):
            raise InvalidParameter("collection fields out of step")
        for obj, kc in zip(self.objects, self.kclasses):
            if obj is not None and obj.kclass() != kc:
                raise InvalidParameter("stored K-class disagrees with the complex")
        self._ext_cache = {}
        self._gram = None

    def __len__(self) -> int:
        return len(self.objects)

    def has_stub(self) -> bool:
        return any(obj is None for obj in self.objects)

    def ext_table(self, i: int, j: int) -> dict[int, int]:
        """Ext dimensions from object i to object j, cached per pair."""
        key = (i, j)
        if key not in self._ext_cache:
            if self.objects[i] is None or self.objects[j] is None:
                raise InvalidParameter("K-class-only stub has no Ext data")
            self._ext_cache[key] = pair_ext_dims(self.objects[i], self.objects[j])
        return self._ext_cache[key]

    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._gram is None:
            self._gram = _euler_gram(self.kclasses)
        return self._gram

    def subset(self, kept, entry: dict) -> "ExcCollection":
        kept = list(kept)
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
    return tuple(tuple(euler_pairing(a, b) for b in kclasses) for a in kclasses)


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
    if coll.has_stub():
        return CheckReport(False, "collection holds K-class-only stubs")
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
    if coll.has_stub():
        return CheckReport(False, "collection holds K-class-only stubs")
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
    verifies the recorded base change against a Gram matrix recomputed
    from the new K-classes before it is trusted."""

    def __init__(self, coll: ExcCollection):
        self.setup = coll.setup
        self.objects = list(coll.objects)
        self.kclasses = list(coll.kclasses)
        self.labels = list(coll.labels)
        self.provenance = list(coll.provenance)
        self.gram = [list(row) for row in coll.gram_matrix()]

    def freeze(self) -> ExcCollection:
        return ExcCollection(self.setup, self.objects, self.kclasses,
                             self.labels, self.provenance)

    def _record(self, entry: dict, U) -> None:
        if not _is_unimodular(U):
            raise InvalidParameter("base change is not unimodular")
        expected = _conjugate(self.gram, U)
        actual = [list(row) for row in _euler_gram(self.kclasses)]
        if actual != expected:
            raise InvalidParameter("Gram conjugation audit failed")
        self.gram = actual
        entry["base_change"] = [list(row) for row in U]
        self.provenance.append(entry)

    def move_left(self, p: int, allow_fallback: bool) -> None:
        """Move the object at position p one slot leftward; the bystander at
        p-1 is right-mutated past it (a pure transposition when the pair is
        orthogonal).  With allow_fallback a non-concentrated pair degrades
        to a K-class-only stub instead of raising."""
        Y, T = self.objects[p - 1], self.objects[p]
        chi = self.gram[p - 1][p]
        stub_reason = None
        result = None
        try:
            if Y is None or T is None:
                raise NonConcentratedHom("K-class-only stub in the pair")
            result = right_mutation(Y, T)
        except NonConcentratedHom as exc:
            if not allow_fallback:
                raise
            stub_reason = str(exc)

        old_label_y = self.labels[p - 1]
        self.objects[p - 1], self.objects[p] = T, result
        self.kclasses[p - 1], self.kclasses[p] = (
            self.kclasses[p], self.kclasses[p - 1] - self.kclasses[p] * chi)
        self.labels[p - 1] = self.labels[p]
        if stub_reason is not None:
            op = "kclass_fallback"
            self.labels[p] = f"K({old_label_y};{self.labels[p - 1]})"
        elif result is Y:
            op = "transpose"
            self.labels[p] = old_label_y
        else:
            op = "right_mutation"
            self.labels[p] = result.label()

        size = len(self.objects)
        U = _identity_rows(size)
        U[p - 1][p - 1] = 0
        U[p][p - 1] = 1
        U[p - 1][p] = 1
        U[p][p] = -chi
        entry = {"op": op, "positions": [p - 1, p], "chi": chi}
        if stub_reason is not None:
            entry["reason"] = stub_reason
        self._record(entry, U)

    def permute(self, perm, entry: dict) -> None:
        """Reorder by perm (new index -> old index); legitimate only for
        mutually orthogonal moves, which the caller has verified."""
        size = len(self.objects)
        self.objects = [self.objects[i] for i in perm]
        self.kclasses = [self.kclasses[i] for i in perm]
        self.labels = [self.labels[i] for i in perm]
        U = [[1 if old == perm[new] else 0 for new in range(size)]
             for old in range(size)]
        self._record(dict(entry, permutation=list(perm)), U)

    def replace(self, updates: dict[int, tuple], entry: dict, U) -> None:
        """Swap in new (object, kclass, label) triples at given positions
        with an explicit base change (helix rotations)."""
        for pos, (obj, kc, label) in updates.items():
            self.objects[pos] = obj
            self.kclasses[pos] = kc
            self.labels[pos] = label
        self._record(entry, U)


def _identity_rows(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _conjugate(gram, U):
    n = len(gram)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[a][b] = sum(U[i][a] * gram[i][j] * U[j][b]
                            for i in range(n) for j in range(n) if U[i][a])
    return out


def _is_unimodular(U) -> bool:
    mat = CycMatrix([[CycNum.from_rat(x) for x in row] for row in U])
    try:
        return abs(mat.det().as_rat()) == 1
    except InvalidParameter:
        return False


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
            bench.move_left(pos, allow_fallback=True)
            pos -= 1
    result = bench.freeze()
    anchors = [EqLineBundle(k, 0).label(coll.setup) for k in range(n_plus_1)]
    if list(result.labels[:n_plus_1]) != anchors:
        raise InvalidParameter("cascade did not surface the twist anchors")
    if not result.has_stub():
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
    if coll.has_stub():
        raise InvalidParameter("cannot partition K-class-only stubs")
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
        _helix_present(bench, targets)

    for t, label in enumerate(targets):
        pos = bench.labels.index(label)
        if pos < t:
            raise InvalidParameter("removal targets crossed each other")
        while pos > t:
            bench.move_left(pos, allow_fallback=False)
            pos -= 1

    staged = bench.freeze()
    if list(staged.labels[:a]) != targets:
        raise InvalidParameter("removal targets failed to surface")
    result = staged.subset(range(a, len(staged)),
                           {"op": "subset", "kind": "orlov_removal", "d": d})
    if len(result) != len(base) // blocks.e - a:
        raise InvalidParameter("invariant-extraction size formula violated")
    return result


def _helix_present(bench: _Workbench, targets: list[str]) -> None:
    """For a full scalar group, regroup the pullback block into rows by the
    weight of the whole scalar group and rotate each row holding a removal
    target so the target leads; objects wrapped around the end pick up a
    twist by O(n+1).  All moves stay inside the recorded base-change trail."""
    setup = bench.setup
    full = setup.central_scalars(setup.n_plus_1)
    row_weight = []
    for obj in bench.objects:
        row_weight.append(_object_weight(setup, obj, full))

    order = sorted(range(len(bench.objects)),
                   key=lambda i: (row_weight[i], i))
    for a in range(len(order)):
        for b in range(len(order)):
            if row_weight[order[a]] != row_weight[order[b]]:
                ta = pair_ext_dims(bench.objects[order[a]],
                                   bench.objects[order[b]])
                if ta:
                    raise OrthogonalityFailure(
                        "scalar-weight rows are not orthogonal")
    if order != list(range(len(order))):
        bench.permute(order, {"op": "block_sort",
                              "weights": sorted(row_weight)})

    rows: dict[int, list[int]] = {}
    for pos in range(len(bench.objects)):
        w = _object_weight(setup, bench.objects[pos], full)
        rows.setdefault(w, []).append(pos)

    for w in sorted(rows):
        positions = rows[w]
        lead = next((k for k, pos in enumerate(positions)
                     if bench.labels[pos] in targets), None)
        if lead is None or lead == 0:
            continue
        _rotate_row(bench, positions, lead, w)


def _rotate_row(bench: _Workbench, positions: list[int], lead: int,
                weight: int) -> None:
    setup = bench.setup
    shift = setup.n_plus_1
    size = len(bench.objects)
    old_kclasses = list(bench.kclasses)

    updates = {}
    columns = {}
    length = len(positions)
    for k in range(length):
        pos = positions[k]
        src = positions[(k + lead) % length]
        if k + lead < length:
            updates[pos] = (bench.objects[src], bench.kclasses[src],
                            bench.labels[src])
            columns[pos] = [1 if i == src else 0 for i in range(size)]
        else:
            obj = bench.objects[src].twisted(shift)
            kc = twist_kclass(bench.kclasses[src], shift)
            updates[pos] = (obj, kc, obj.label())
            columns[pos] = _integral_coordinates(kc, old_kclasses)

    U = _identity_rows(size)
    for pos, col in columns.items():
        for i in range(size):
            U[i][pos] = col[i]
    bench.replace(updates, {"op": "helix_rotate", "weight": weight,
                            "shift": lead,
                            "positions": list(positions)}, U)


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
    compositions through intermediate objects; requires a strong collection."""
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

    arrows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if not hom[i][j]:
                continue
            middles = [k for k in range(i + 1, j) if hom[i][k] and hom[k][j]]
            if not middles:
                arrows[i][j] = hom[i][j]
                continue
            data = hom_complex(coll.objects[i], coll.objects[j])
            rows = []
            for k in middles:
                for f in cohomology_basis(coll.objects[i], coll.objects[k]):
                    for g in cohomology_basis(coll.objects[k], coll.objects[j]):
                        composite = compose_chain_maps(f, g)
                        rows.append(list(data.h0_coordinates(composite)))
            arrows[i][j] = hom[i][j] - rank_of_rows(rows)

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
    objects = [obj.twisted(k) if obj is not None else None
               for obj in coll.objects]
    kclasses = [twist_kclass(kc, k) for kc in coll.kclasses]
    labels = [obj.label() if obj is not None else f"{lbl}(+{k})"
              for obj, lbl in zip(objects, coll.labels)]
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
    subset.  Unimodularity of each step is re-checked."""
    gram = None
    for entry in provenance:
        op = entry.get("op")
        if op == "beilinson":
            gram = [list(row) for row in entry["gram"]]
        elif op == "subset":
            kept = entry["kept"]
            gram = [[gram[i][j] for j in kept] for i in kept]
        elif op in ("transpose", "right_mutation", "kclass_fallback",
                    "block_sort", "helix_rotate"):
            U = entry["base_change"]
            if not _is_unimodular(U):
                raise InvalidParameter(f"non-unimodular base change in {op}")
            gram = _conjugate(gram, U)
        elif op in ("tensor_twist", "warning"):
            continue
        else:
            raise InvalidParameter(f"unknown provenance op {op!r}")
    if gram is None:
        raise InvalidParameter("provenance has no base Gram")
    return tuple(tuple(row) for row in gram)
