"""Group closure, canonical ordering, conjugacy classes, central scalars.

The group law is an integer Cayley table derived from the closure; here it
is swept against the law by matrix products (products and inverses looked
up by index, classes by conjugation with the generator matrices).
"""

import pytest
from hypothesis import example, given, strategies as st

from eqcol.config import order_cap
from eqcol.cyclotomic import CycNum
from eqcol.errors import (
    GroupMismatch,
    InvalidParameter,
    NotInvertible,
    OrderCapExceeded,
)
from eqcol.groups import central_scalar_subgroup, generate_group
from eqcol.linalg import CycMatrix
from eqcol.reps import binary_dihedral, cyclic_diagonal
from eqcol.scenario import build_setup, load_scenario
from test_repring import SCENARIOS, SWEEP, build, specs


def test_trivial_group():
    g = generate_group([], dimension=2)
    assert g.order == 1
    assert g.classes == ((0,),)
    assert g.elements[0] == CycMatrix.identity(g.dimension)


def test_trivial_group_needs_dimension():
    with pytest.raises(InvalidParameter):
        generate_group([])


def test_cyclic_order_three():
    s = cyclic_diagonal(3, [1, 1, 1])
    g = s.group
    assert g.order == 3
    assert len(g.classes) == 3
    assert g.is_scalar()
    assert g.elements[0] == CycMatrix.identity(g.dimension)


def test_binary_dihedral_two_structure():
    s = binary_dihedral(2)
    g = s.group
    assert g.order == 8
    assert sorted(len(c) for c in g.classes) == [1, 1, 2, 2, 2]
    # identity alone in class 0
    assert g.classes[0] == (0,)
    assert g.elements[0] == CycMatrix.identity(g.dimension)
    # class sizes divide the order and sum to it
    assert sum(len(c) for c in g.classes) == 8
    assert all(8 % len(c) == 0 for c in g.classes)
    assert [r.dim for r in s.irreps] == [1, 1, 2, 1, 1]


def test_binary_dihedral_general_orders():
    for l in (1, 2, 3):
        s = binary_dihedral(l)
        assert s.group.order == 4 * l
        assert sum(r.dim ** 2 for r in s.irreps) == 4 * l


def tree_words(group):
    """Each element's word in the generator letters, read off the spanning
    tree: the parent's word followed by the letter of the tree edge.  The
    tree lists the elements in the order the closure found them, so every
    parent comes before its children."""
    words = [()] * group.order
    for j, parent, letter in group.tree:
        words[j] = words[parent] + (letter,)
    return tuple(words)


def test_words_reproduce_elements():
    s = binary_dihedral(2)
    g = s.group
    for i, word in enumerate(tree_words(g)):
        m = CycMatrix.identity(2)
        for gi in word:
            m = m * g.generators[gi]
        assert m == g.elements[i]


def test_closure_idempotence():
    g = binary_dihedral(2).group
    again = generate_group(list(g.elements))
    assert set(again.elements) == set(g.elements)


def test_class_power_well_defined():
    g = binary_dihedral(2).group
    for c in range(len(g.classes)):
        for k in (-1, 0, 1, 2, 3):
            expected = g.class_power(c, k)
            for i in g.classes[c]:
                assert g.class_of[g.power(i, k)] == expected


def test_mul_inv_tables():
    g = binary_dihedral(2).group
    for i in range(g.order):
        j = g.inv(i)
        assert g.mul(i, j) == 0
        assert g.mul(j, i) == 0


def test_central_scalar_subgroup():
    s = binary_dihedral(2)
    info = central_scalar_subgroup(s.group, 2)
    assert info.e == 2
    assert info.generator == -1
    assert len(info.element_indices) == 2

    info1 = central_scalar_subgroup(s.group, 1)
    assert info1.e == 1 and info1.generator == 1
    assert info1.generator_index == 0

    c3 = cyclic_diagonal(3, [1, 1, 1])
    info3 = central_scalar_subgroup(c3.group, 3)
    assert info3.e == 3
    assert info3.generator == CycNum.zeta(3)
    assert set(info3.element_indices) == {0, 1, 2}
    # e divides d and the group order
    for d in (1, 2, 3, 6, 12):
        info_d = central_scalar_subgroup(c3.group, d)
        assert d % info_d.e == 0
        assert c3.group.order % info_d.e == 0


def test_cyclic_diagonal_requires_exact_order():
    # diag(zeta_4^2) has order 2, not 4
    with pytest.raises(InvalidParameter):
        cyclic_diagonal(4, [2])


def test_order_cap(monkeypatch):
    # the cap is read from the environment on first use
    gen = CycMatrix.diagonal([CycNum.zeta(16)])
    monkeypatch.setenv("EQCOL_ORDER_CAP", "8")
    order_cap.cache_clear()
    try:
        with pytest.raises(OrderCapExceeded, match="exceeds cap 8"):
            generate_group([gen])
        monkeypatch.setenv("EQCOL_ORDER_CAP", "16")
        order_cap.cache_clear()
        assert generate_group([gen]).order == 16
    finally:
        monkeypatch.delenv("EQCOL_ORDER_CAP")
        order_cap.cache_clear()


def test_singular_generator_rejected():
    with pytest.raises(NotInvertible):
        generate_group([CycMatrix([[1, 0], [0, 0]])])


def test_index_of_rejects_strangers():
    g = binary_dihedral(2).group
    with pytest.raises(GroupMismatch):
        g.index_of(CycMatrix([[2, 0], [0, 2]]))


def test_canonical_element_order_is_stable():
    a = binary_dihedral(2).group
    b = binary_dihedral(2).group
    assert [str(m) for m in a.elements] == [str(m) for m in b.elements]
    orders = [oracle_element_order(m) for m in a.elements]
    assert orders == sorted(orders)
    assert orders[0] == 1


# -- the group law against matrix products ----------------------------------

def oracle_element_order(matrix: CycMatrix) -> int:
    power, k = matrix, 1
    while power != CycMatrix.identity(matrix.nrows):
        power, k = power * matrix, k + 1
    return k


def oracle_inverse(matrix: CycMatrix) -> CycMatrix:
    """m^(k-1) for m of order k: the inverse by matrix products alone."""
    inverse = CycMatrix.identity(matrix.nrows)
    for _ in range(oracle_element_order(matrix) - 1):
        inverse = inverse * matrix
    return inverse


class OracleGroup:
    """The closure by frontiers of matrix products, sorted by (element
    order, matrix string); every operation multiplies or inverts matrices
    and looks the result up by index."""

    def __init__(self, generators, dimension):
        self.generators = list(generators)
        identity = CycMatrix.identity(dimension)
        discovered = {identity: ()}
        frontier = [identity]
        while frontier:
            next_frontier = []
            for m in frontier:
                for gi, g in enumerate(self.generators):
                    prod = m * g
                    if prod not in discovered:
                        discovered[prod] = discovered[m] + (gi,)
                        next_frontier.append(prod)
            frontier = next_frontier
        orders = {m: oracle_element_order(m) for m in discovered}
        self.elements = sorted(discovered, key=lambda m: (orders[m], str(m)))
        self.words = tuple(discovered[m] for m in self.elements)
        self.orders = tuple(orders[m] for m in self.elements)
        self.index = {m: i for i, m in enumerate(self.elements)}

    def mul(self, i, j):
        return self.index[self.elements[i] * self.elements[j]]

    def inv(self, i):
        return self.index[oracle_inverse(self.elements[i])]

    def power(self, i, k):
        base = self.elements[i] if k >= 0 else oracle_inverse(self.elements[i])
        result = CycMatrix.identity(base.nrows)
        for _ in range(abs(k)):
            result = result * base
        return self.index[result]

    def classes(self):
        inverses = [oracle_inverse(g) for g in self.generators]
        seen, raw = set(), []
        for start in range(len(self.elements)):
            if start in seen:
                continue
            orbit, stack = {start}, [start]
            while stack:
                m = self.elements[stack.pop()]
                for g, g_inv in zip(self.generators, inverses):
                    j = self.index[g * m * g_inv]
                    if j not in orbit:
                        orbit.add(j)
                        stack.append(j)
            seen |= orbit
            raw.append(tuple(sorted(orbit)))
        raw.sort(key=lambda orbit: (self.orders[orbit[0]],
                                    str(self.elements[orbit[0]].trace()),
                                    str(self.elements[orbit[0]])))
        return tuple(raw)


def group_of(spec):
    if spec == ("trivial",):
        return generate_group([], dimension=2)
    return build(spec).group


@SWEEP
@given(st.one_of(specs, st.just(("trivial",))))
@example(("binary_dihedral", 3))
@example(("trivial",))
@example(("explicit",))
def test_group_law_matches_matrix_products(spec):
    group = group_of(spec)
    oracle = OracleGroup(group.generators, group.dimension)
    assert [str(m) for m in group.elements] == [str(m) for m in oracle.elements]
    assert tree_words(group) == oracle.words
    n = group.order
    for i in range(n):
        assert group.inv(i) == oracle.inv(i)
        # power(i, -1) walks (stored order - 1) steps of the table, and the
        # elements above are sorted by order: both read the stored orders
        assert [group.power(i, k) for k in range(-1, 4)] == \
            [oracle.power(i, k) for k in range(-1, 4)]
        assert [group.mul(i, j) for j in range(n)] == \
            [oracle.mul(i, j) for j in range(n)], i
    classes = oracle.classes()
    assert group.classes == classes
    assert group.class_of == tuple(
        next(c for c, orbit in enumerate(classes) if i in orbit) for i in range(n))
    assert group.is_scalar() == all(m.is_scalar() for m in group.elements)


def test_is_scalar_reads_the_generators():
    # Z/4 by diag(i, i) is scalar; Z/4 by diag(i, -i) is not, though its
    # square -1 is; binary dihedral groups contain the scalar -1 but are not
    # scalar; the trivial group is
    assert cyclic_diagonal(4, [1, 1]).group.is_scalar()
    assert not cyclic_diagonal(4, [1, 3]).group.is_scalar()
    assert not binary_dihedral(2).group.is_scalar()
    assert generate_group([], dimension=3).is_scalar()


@pytest.mark.parametrize("case", ["bd2", "bd12", "q8_explicit"])
def test_spanning_tree_and_schreier_edges(case):
    if case == "q8_explicit":
        group = build_setup(load_scenario(SCENARIOS / "q8_explicit.json")).group
    else:
        group = binary_dihedral(int(case[2:])).group
    n, k = group.order, len(group.generators)
    gens = [group.index_of(g) for g in group.generators]
    assert len(group.tree) == n - 1
    assert sorted(j for j, _, _ in group.tree) == list(range(1, n))
    for j, parent, letter in group.tree:
        assert group.elements[parent] * group.generators[letter] == group.elements[j]
        assert group.mul(parent, gens[letter]) == j
    edges = group.schreier_edges()
    assert len(edges) == n * k - n + 1
    on_tree = {(parent, letter) for _, parent, letter in group.tree}
    assert sorted(edges + sorted(on_tree)) == \
        [(i, g) for i in range(n) for g in range(k)]
    assert edges == sorted(edges)


@pytest.mark.parametrize("case", ["bd12", "q8_explicit", "z4"])
def test_elements_share_one_entry_object_per_value(case):
    # the closure runs on flat forms and makes each element a CycMatrix
    # once, with one CycNum per distinct entry value, so every value is
    # reduced once for the canonical sort and the index hashes
    if case == "q8_explicit":
        group = build_setup(load_scenario(SCENARIOS / "q8_explicit.json")).group
    elif case == "z4":
        group = cyclic_diagonal(4, [1, 1, 1, 1]).group
    else:
        group = binary_dihedral(12).group
    entries = [v for m in group.elements for row in m.rows for v in row]
    assert len({id(v) for v in entries}) == len(set(entries))
    assert all(v._reduced is not None for v in entries)
