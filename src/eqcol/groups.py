"""Finite matrix groups over cyclotomic fields.

A group is the closure of a list of invertible matrices, stored as a
canonically ordered element list: ascending element order, then the
lexicographic order of the canonical entry string.  The identity is
always element 0 and is alone in conjugacy class 0, and class order is
pinned by (representative order, trace string, matrix string), so every
downstream report is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ORDER_CAP
from .cyclotomic import CycNum
from .errors import GroupMismatch, InvalidParameter, NotInvertible, OrderCapExceeded
from .linalg import CycMatrix


class FiniteMatrixGroup:
    """Closure of a finite set of invertible matrices."""

    def __init__(self, elements: list[CycMatrix], words: list[tuple[int, ...]],
                 generators: list[CycMatrix]):
        # Internal: use generate_group.
        self.elements = tuple(elements)
        self.words = tuple(words)
        self.generators = tuple(generators)
        self.order = len(elements)
        self.dimension = elements[0].nrows
        self._index = {m: i for i, m in enumerate(elements)}
        self._orders = tuple(_element_order(m) for m in elements)
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._inv_cache: dict[int, int] = {}
        self.classes, self.class_of = self._conjugacy_classes()

    # -- element access ----------------------------------------------

    def index_of(self, matrix: CycMatrix) -> int:
        try:
            return self._index[matrix]
        except KeyError:
            raise GroupMismatch(f"matrix {matrix} is not a group element") from None

    def __contains__(self, matrix: CycMatrix) -> bool:
        return matrix in self._index

    def element_order(self, i: int) -> int:
        return self._orders[i]

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        if key not in self._mul_cache:
            self._mul_cache[key] = self.index_of(self.elements[i] * self.elements[j])
        return self._mul_cache[key]

    def inv(self, i: int) -> int:
        if i not in self._inv_cache:
            self._inv_cache[i] = self.index_of(self.elements[i].inverse())
        return self._inv_cache[i]

    def power(self, i: int, k: int) -> int:
        k %= self._orders[i]
        result = 0
        for _ in range(k):
            result = self.mul(result, i)
        return result

    def is_scalar(self) -> bool:
        """True when every element is a scalar multiple of the identity."""
        return all(m.is_scalar() for m in self.elements)

    # -- conjugacy ------------------------------------------------------

    def _conjugacy_classes(self):
        n = len(self.elements)
        gens = [(g, g.inverse()) for g in self.generators]
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
                m = self.elements[i]
                for g, ginv in gens:
                    j = self.index_of(g * m * ginv)
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


def _element_order(matrix: CycMatrix) -> int:
    power = matrix
    for k in range(1, ORDER_CAP + 1):
        if power.is_identity():
            return k
        power = power * matrix
    raise OrderCapExceeded(f"element order exceeds cap {ORDER_CAP}")


def generate_group(generators: list[CycMatrix], dimension: int | None = None,
                   order_cap: int = ORDER_CAP) -> FiniteMatrixGroup:
    """Close a generator list under multiplication.

    An empty generator list needs an explicit ambient dimension and gives
    the trivial group.
    """
    generators = list(generators)
    if not generators:
        if dimension is None:
            raise InvalidParameter("trivial group needs an explicit dimension")
        identity = CycMatrix.identity(dimension)
        return FiniteMatrixGroup([identity], [()], [])
    dim = generators[0].nrows
    for g in generators:
        if g.nrows != g.ncols or g.nrows != dim:
            raise InvalidParameter("generators must be square of equal size")
        if not g.det():
            raise NotInvertible(f"generator {g} is singular")
    if dimension is not None and dimension != dim:
        raise InvalidParameter(f"generator size {dim} does not match dimension {dimension}")
    identity = CycMatrix.identity(dim)
    discovered: dict[CycMatrix, tuple[int, ...]] = {identity: ()}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for m in frontier:
            word = discovered[m]
            for gi, g in enumerate(generators):
                prod = m * g
                if prod not in discovered:
                    discovered[prod] = word + (gi,)
                    next_frontier.append(prod)
                    if len(discovered) > order_cap:
                        raise OrderCapExceeded(
                            f"group order exceeds cap {order_cap}")
        frontier = next_frontier
    ordered = sorted(discovered, key=lambda m: (_element_order(m), str(m)))
    words = [discovered[m] for m in ordered]
    return FiniteMatrixGroup(ordered, words, generators)


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
