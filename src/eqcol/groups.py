"""Finite matrix groups over cyclotomic fields.

A group is the closure of a list of invertible matrices, stored as a
canonically ordered element list: ascending element order, then the
lexicographic order of the canonical entry string.  The identity is
always element 0 and is alone in conjugacy class 0, and class order is
pinned by (representative order, trace string, matrix string), so every
downstream report is reproducible.

The closure is a breadth-first search that forms m * g for every element
m and generator g, so it also yields the right action of each generator
as a permutation of the elements and a spanning tree (each element is
its parent times one generator, the letter of its tree edge).  It runs on
the flat forms of `linalg.flatten` at N, the lcm of the generator
entries' conductors: m * g is one `RightMultiplier` application, and the
elements found are keyed by their flat tuples, which are equal exactly
when the matrices are.  After the closure each element becomes a
`CycMatrix` once, all of them sharing one `CycNum` per distinct entry
value, so the canonical sort, the index hashes and the class keys reduce
each value once.  From the right actions and the tree the group law is an
integer Cayley table: i * j = (i * parent(j)) * g for j = parent(j) * g.
Products, inverses, powers, element orders and conjugacy classes are
lookups in that table; no matrix is multiplied or inverted after the
closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import order_cap
from .cyclotomic import CycNum, common_conductor
from .errors import GroupMismatch, InvalidParameter, NotInvertible, OrderCapExceeded
from .linalg import CycMatrix, RightMultiplier, flat_identity, unflatten


class FiniteMatrixGroup:
    """Closure of a finite set of invertible matrices."""

    def __init__(self, elements: list[CycMatrix],
                 generators: list[CycMatrix], table: tuple[tuple[int, ...], ...],
                 orders: tuple[int, ...], tree: tuple[tuple[int, int, int], ...]):
        # Internal: use generate_group.
        self.elements = tuple(elements)
        self.generators = tuple(generators)
        self.order = len(elements)
        self.dimension = elements[0].nrows
        self._index = {m: i for i, m in enumerate(elements)}
        self._table = table
        self._orders = orders
        # (element, parent, letter) in the order the closure found them
        self.tree = tree
        self._inverses = tuple(row.index(0) for row in table)
        self.classes, self.class_of = self._conjugacy_classes()

    # -- element access ----------------------------------------------

    def index_of(self, matrix: CycMatrix) -> int:
        try:
            return self._index[matrix]
        except KeyError:
            raise GroupMismatch(f"matrix {matrix} is not a group element") from None

    def __contains__(self, matrix: CycMatrix) -> bool:
        return matrix in self._index

    def mul(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def power(self, i: int, k: int) -> int:
        row = self._table[i]
        result = 0
        for _ in range(k % self._orders[i]):
            result = row[result]
        return result

    def is_scalar(self) -> bool:
        """True when every element is a scalar multiple of the identity,
        that is, when every generator is."""
        return all(g.is_scalar() for g in self.generators)

    def schreier_edges(self) -> list[tuple[int, int]]:
        """The pairs (element i, generator letter g) off the spanning tree,
        i-major: those where i * g was already found by another word.  There
        are |G| k - |G| + 1 of them for k generators."""
        on_tree = {(parent, letter) for _, parent, letter in self.tree}
        return [(i, g) for i in range(self.order)
                for g in range(len(self.generators)) if (i, g) not in on_tree]

    # -- conjugacy ------------------------------------------------------

    def _conjugacy_classes(self):
        n = self.order
        table, inverses = self._table, self._inverses
        gens = [self.index_of(g) for g in self.generators]
        seen = [False] * n
        raw: list[list[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = {start}
            stack = [start]
            seen[start] = True
            while stack:
                i = stack.pop()
                for s in gens:
                    j = table[table[s][i]][inverses[s]]
                    if not seen[j]:
                        seen[j] = True
                        orbit.add(j)
                        stack.append(j)
            raw.append(sorted(orbit))
        def class_key(orbit: list[int]):
            rep = self.elements[orbit[0]]
            return (self._orders[orbit[0]], str(rep.trace()), str(rep))
        raw.sort(key=class_key)
        classes = tuple(tuple(orbit) for orbit in raw)
        class_of = [0] * n
        for c, orbit in enumerate(classes):
            for i in orbit:
                class_of[i] = c
        return classes, tuple(class_of)

    def class_size(self, c: int) -> int:
        return len(self.classes[c])

    def class_representative(self, c: int) -> int:
        return self.classes[c][0]

    def class_power(self, c: int, k: int) -> int:
        """Class of g^k for g in class c (independent of the choice of g)."""
        return self.class_of[self.power(self.classes[c][0], k)]

    def __repr__(self) -> str:
        return f"FiniteMatrixGroup(order={self.order}, dim={self.dimension})"


def generate_group(generators: list[CycMatrix],
                   dimension: int | None = None) -> FiniteMatrixGroup:
    """Close a generator list under multiplication, up to the configured
    order cap.

    An empty generator list needs an explicit ambient dimension and gives
    the trivial group.
    """
    cap = order_cap()
    generators = list(generators)
    if not generators:
        if dimension is None:
            raise InvalidParameter("trivial group needs an explicit dimension")
        identity = CycMatrix.identity(dimension)
        return FiniteMatrixGroup([identity], [], ((0,),), (1,), ())
    dim = generators[0].nrows
    for g in generators:
        if g.nrows != g.ncols or g.nrows != dim:
            raise InvalidParameter("generators must be square of equal size")
        if not g.det():
            raise NotInvertible(f"generator {g} is singular")
    if dimension is not None and dimension != dim:
        raise InvalidParameter(f"generator size {dim} does not match dimension {dimension}")
    # Breadth-first closure on flat forms at the generators' conductor,
    # which are equal exactly when the matrices are; `found` grows while it
    # is scanned.  right[g][i] is the index of found[i] * g, and tree holds
    # (child, parent, letter).
    conductor = common_conductor(row for g in generators for row in g.rows)
    actions = [RightMultiplier(g, conductor) for g in generators]
    found = [flat_identity(dim, conductor)]
    index = {found[0]: 0}
    tree: list[tuple[int, int, int]] = []
    right: list[list[int]] = [[] for _ in generators]
    for i, m in enumerate(found):
        for gi, action in enumerate(actions):
            prod = action(m)
            j = index.get(prod)
            if j is None:
                j = index[prod] = len(found)
                found.append(prod)
                tree.append((j, i, gi))
                if len(found) > cap:
                    raise OrderCapExceeded(f"group order exceeds cap {cap}")
            right[gi].append(j)
    n = len(found)
    # column j of the Cayley table: i * j for every i, from its parent's
    # column, since i * j = (i * parent) * letter
    columns: list[list[int]] = [list(range(n))] + [[]] * (n - 1)
    for j, parent, letter in tree:
        perm = right[letter]
        columns[j] = [perm[x] for x in columns[parent]]
    rows = list(zip(*columns))
    orders = []
    for i, row in enumerate(rows):
        x, k = i, 1
        while x:
            x, k = row[x], k + 1
        orders.append(k)
    # one CycNum per distinct entry value, so each is reduced and written
    # out once for the canonical sort
    shared: dict = {}
    matrices = [unflatten(flat, dim, conductor, shared) for flat in found]
    text = {id(v): str(v) for v in shared.values()}
    keys = [(orders[i], m.to_text(lambda v: text[id(v)]))
            for i, m in enumerate(matrices)]
    ordered = sorted(range(n), key=keys.__getitem__)
    rank = [0] * n
    for new, old in enumerate(ordered):
        rank[old] = new
    table = tuple(tuple([rank[row[j]] for j in ordered])
                  for row in (rows[i] for i in ordered))
    return FiniteMatrixGroup(
        [matrices[i] for i in ordered], generators,
        table, tuple(orders[i] for i in ordered),
        tuple((rank[j], rank[parent], letter) for j, parent, letter in tree))


@dataclass(frozen=True)
class CentralSubgroupInfo:
    """The scalar matrices in G whose scalar is a d-th root of unity."""

    d: int
    e: int
    generator: CycNum
    generator_index: int
    element_indices: tuple[int, ...]


def central_scalar_subgroup(group: FiniteMatrixGroup, d: int) -> CentralSubgroupInfo:
    """All scalars zeta with zeta*Id in G and zeta^d = 1; a cyclic group."""
    if d < 1:
        raise InvalidParameter(f"divisor parameter {d} must be positive")
    members: list[tuple[int, CycNum]] = []
    for i, m in enumerate(group.elements):
        if m.is_scalar():
            lam = m.rows[0][0]
            if lam ** d == 1:
                members.append((i, lam))
    e = len(members)
    # The scalars form a finite subgroup of the unit group, hence cyclic of
    # order e; its canonical generator is the standard primitive e-th root.
    gen = CycNum.zeta(e)
    gen_index = next((i for i, lam in members if lam == gen), None)
    if gen_index is None:
        raise InvalidParameter("scalar subgroup is not the full group of e-th roots")
    return CentralSubgroupInfo(
        d=d, e=e, generator=gen, generator_index=gen_index,
        element_indices=tuple(i for i, _ in members),
    )
