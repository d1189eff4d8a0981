"""Exceptional collections: builders, mutation pipelines, extraction, quivers.

The hand-computed goldens pin down both presentations of the quaternion
surface model (direct bubbling with one cone) and the scalar cyclic model
(helix presentation, transpositions only), plus the Gram/base-change audit
trail that every pipeline is required to leave behind.
"""

import itertools
import random
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eqcol.cohomology import EqLineBundle, KClass, euler_pairing, twist_kclass
import eqcol.excol as excol_mod
import eqcol.scenario as scenario_mod
from eqcol.complexes import (EqComplex, HomComplexData, cohomology_basis,
                             compose_chain_maps, from_line_bundle, hom_complex,
                             pair_ext_dims, right_mutation)
from eqcol.errors import (CertificateFailure, InvalidParameter,
                          NonConcentratedHom, NotADivisor,
                          NotStrong, OrthogonalityFailure)
from eqcol.excol import (
    ExcCollection,
    _conjugate_columns,
    _euler_gram,
    _int_det,
    _int_product,
    _integral_coordinates,
    _moved_columns,
    _unimodular,
    _Workbench,
    beilinson_collection,
    cascade_mutation,
    check_exceptional,
    check_strong,
    dsing_collection,
    is_unitriangular,
    quiver,
    replay_gram,
    tensor_twist,
    veronese_blocks,
)
from eqcol.cyclotomic import CycNum
from eqcol.linalg import eliminate_along, rank_of_rows
from eqcol.reps import binary_dihedral, cyclic_diagonal
from eqcol.scenario import build_setup, load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _conjugate(gram, U):
    """Oracle: U^T G U as the two dense integer products U^T (G U)."""
    return _int_product([list(col) for col in zip(*U)], _int_product(gram, U))


def _is_unimodular(U) -> bool:
    """Oracle: a Bareiss determinant of all of U."""
    n = len(U)
    return n > 0 and all(len(row) == n for row in U) and abs(_int_det(U)) == 1


@pytest.fixture(scope="module")
def bd2():
    return binary_dihedral(2)


@pytest.fixture(scope="module")
def c3():
    return cyclic_diagonal(3, [1, 1, 1])


@pytest.fixture(scope="module")
def c4_nonsl():
    return cyclic_diagonal(4, [1, 1])


# -- Beilinson grid ------------------------------------------------------


def test_beilinson_order_and_labels(bd2):
    coll = beilinson_collection(bd2)
    assert len(coll) == 10
    assert coll.labels[:5] == ("O@rho_0", "O@rho_1", "O@rho_2",
                               "O@rho_3", "O@rho_4")
    assert coll.labels[5] == "O(1)@rho_0"
    assert check_exceptional(coll).passed
    assert check_strong(coll).passed
    assert is_unitriangular(coll.gram_matrix())


def test_beilinson_hom_matrix_is_affine_d4(bd2):
    # One arrow between rho_2 and each one-dimensional irrep, per layer.
    coll = beilinson_collection(bd2)
    for j in range(5):
        for k in range(5):
            hom = coll.ext_table(j, 5 + k).get(0, 0)
            touches_center = (j == 2) != (k == 2)
            assert hom == (1 if touches_center else 0)


def test_beilinson_quiver_two_affine_d4_components(bd2):
    q = quiver(beilinson_collection(bd2))
    assert sum(sum(row) for row in q.arrows) == 8
    assert q.components == ((0, 1, 3, 4, 7), (2, 5, 6, 8, 9))
    for comp in q.components:
        degrees = [sum(q.arrows[i][j] + q.arrows[j][i] for j in comp)
                   for i in comp]
        assert sorted(degrees) == [1, 1, 1, 1, 4]


# -- cascade -------------------------------------------------------------


def test_cascade_quaternion_golden(bd2):
    coll = cascade_mutation(beilinson_collection(bd2))
    assert coll.labels == (
        "O@rho_0", "O(1)@rho_0",
        "O@rho_1", "{O@rho_2->O(1)@rho_0}", "O@rho_3", "O@rho_4",
        "O(1)@rho_1", "O(1)@rho_2", "O(1)@rho_3", "O(1)@rho_4",
    )
    assert check_exceptional(coll).passed
    ops = [e["op"] for e in coll.provenance if e["op"] != "beilinson"]
    assert ops.count("right_mutation") == 1
    assert ops.count("transpose") == 3
    # The traveller keeps Ext^1 of dimension h into its own cone, so the
    # full mutated grid is never strong once a genuine cone has formed;
    # strongness appears after the anchors are removed.
    assert coll.ext_table(1, 3) == {1: 1}
    assert not check_strong(coll).passed


def test_cascade_scalar_cyclic_forms_cones(c3):
    # The anchors are not orthogonal to everything they pass: two bystanders
    # per anchor sweep have nonzero Hom and become genuine cones.
    coll = cascade_mutation(beilinson_collection(c3))
    assert coll.labels == (
        "O@rho_0", "O(1)@rho_0", "O(2)@rho_0",
        "{O@rho_1->O(2)@rho_0^6}",
        "{O@rho_2->O(1)@rho_0^3}",
        "O(1)@rho_1",
        "{O(1)@rho_2->O(2)@rho_0^3}",
        "O(2)@rho_1", "O(2)@rho_2",
    )
    chis = [e["chi"] for e in coll.provenance if e["op"] == "right_mutation"]
    assert sorted(chis) == [3, 3, 6]
    assert check_exceptional(coll).passed
    # Ext^1(O(1)@rho_0, {O@rho_2->O(1)@rho_0}) = 3 spoils strongness.
    assert coll.ext_table(1, 4) == {1: 3}
    assert not check_strong(coll).passed
    with pytest.raises(NotStrong):
        quiver(coll)


def test_cascade_requires_full_grid(bd2):
    base = beilinson_collection(bd2)
    sub = base.subset(range(5, 10), {"op": "subset", "kind": "test"})
    with pytest.raises(InvalidParameter):
        cascade_mutation(sub)


def test_cascade_kclass_fallback(bd2, monkeypatch):
    real = cascade_mutation(beilinson_collection(bd2))

    def refuse(E, F):
        raise NonConcentratedHom("forced for the fallback path")

    monkeypatch.setattr("eqcol.excol.right_mutation", refuse)
    stubbed = cascade_mutation(beilinson_collection(bd2))
    assert stubbed.has_stub()
    ops = {e["op"] for e in stubbed.provenance}
    assert "kclass_fallback" in ops
    # The K-level bookkeeping is untouched by the failure.
    assert stubbed.kclasses == real.kclasses
    assert stubbed.gram_matrix() == real.gram_matrix()
    with pytest.raises(InvalidParameter):
        stubbed.ext_table(0, 3)
    # a stub keeps its label under a twist, with the twist's sign written once
    stub = stubbed.objects.index(None)
    for k, suffix in ((2, "(+2)"), (-3, "(-3)")):
        assert tensor_twist(stubbed, k).labels[stub] == stubbed.labels[stub] + suffix


# -- Veronese blocks -----------------------------------------------------


def test_veronese_blocks_quaternion(bd2):
    blocks = veronese_blocks(beilinson_collection(bd2), 2)
    assert blocks.e == 2
    assert blocks.pullback_weight == 0
    pull = blocks.pullback_collection()
    assert pull.labels == ("O@rho_0", "O@rho_1", "O@rho_3", "O@rho_4",
                           "O(1)@rho_2")
    other = blocks.block_collection(1)
    assert other.labels == ("O@rho_2", "O(1)@rho_0", "O(1)@rho_1",
                            "O(1)@rho_3", "O(1)@rho_4")


def test_veronese_blocks_scalar_cyclic(c3):
    blocks = veronese_blocks(beilinson_collection(c3), 3)
    assert blocks.e == 3
    assert blocks.blocks == ((0, 4, 8), (1, 5, 6), (2, 3, 7))
    assert blocks.pullback_collection().labels == (
        "O@rho_0", "O(1)@rho_1", "O(2)@rho_2")


def test_veronese_rejects_non_divisor(c3):
    with pytest.raises(NotADivisor):
        veronese_blocks(beilinson_collection(c3), 2)


def test_veronese_rejects_straddling_object(bd2):
    # A direct sum across weight classes has no well-defined block.
    base = beilinson_collection(bd2)
    mixed = EqComplex(bd2, {0: (EqLineBundle(0, 0), EqLineBundle(0, 2))})
    objects = list(base.objects)[:-1] + [mixed]
    kclasses = list(base.kclasses)[:-1] + [mixed.kclass()]
    labels = list(base.labels)[:-1] + [mixed.label()]
    from eqcol.excol import ExcCollection
    coll = ExcCollection(bd2, objects, kclasses, labels, base.provenance)
    with pytest.raises(OrthogonalityFailure):
        veronese_blocks(coll, 2)


def test_block_quiver_composition_rank(c3):
    # Within one block the length-two Homs are exactly the composites:
    # 9 products of linear forms span the 6-dimensional quadric space.
    blocks = veronese_blocks(beilinson_collection(c3), 3)
    q = quiver(blocks.pullback_collection())
    assert q.hom_dims == ((0, 3, 6), (0, 0, 3), (0, 0, 0))
    assert q.arrows == ((0, 3, 0), (0, 0, 3), (0, 0, 0))
    assert q.components == ((0, 1, 2),)


# -- singularity-model extraction ---------------------------------------


def test_crossed_product_quaternion_top_layer(bd2):
    coll = dsing_collection(bd2, 2, "crossed_product")
    assert coll.labels == ("O(1)@rho_0", "O(1)@rho_1", "O(1)@rho_2",
                           "O(1)@rho_3", "O(1)@rho_4")
    q = quiver(coll)
    assert all(not any(row) for row in q.arrows)
    assert len(q.components) == 5


def test_crossed_product_can_be_empty(bd2):
    coll = dsing_collection(bd2, 1, "crossed_product")
    assert len(coll) == 0
    assert check_exceptional(coll).passed
    assert quiver(coll).components == ()


def test_crossed_product_scalar_cyclic(c3):
    coll = dsing_collection(c3, 3, "crossed_product")
    assert coll.labels == ("O(1)@rho_0", "O(1)@rho_1", "O(1)@rho_2",
                           "O(2)@rho_0", "O(2)@rho_1", "O(2)@rho_2")
    q = quiver(coll)
    assert sorted(map(len, q.components)) == [2, 2, 2]
    for comp in q.components:
        i, j = comp
        assert q.arrows[i][j] + q.arrows[j][i] == 3


def test_invariant_extraction_quaternion_d2(bd2):
    coll = dsing_collection(bd2, 2, "invariant_veronese")
    assert coll.labels == ("O@rho_1", "O@rho_3", "O@rho_4", "O(1)@rho_2")
    # d = n + 1: the target already leads its block, so nothing mutates.
    assert not [e for e in coll.provenance
                if e["op"] in ("transpose", "right_mutation", "helix_rotate")]
    assert [w["code"] for w in coll.warnings()] == ["FreenessNotChecked"]
    q = quiver(coll)
    assert q.components == ((0, 1, 2, 3),)
    assert [q.arrows[i][3] for i in range(3)] == [1, 1, 1]


def test_invariant_extraction_quaternion_d1_matches_cascade(bd2):
    coll = dsing_collection(bd2, 1, "invariant_veronese")
    cascade = cascade_mutation(beilinson_collection(bd2))
    assert coll.labels == cascade.labels[2:]
    assert coll.kclasses == cascade.kclasses[2:]
    ops = [e["op"] for e in coll.provenance]
    assert ops.count("right_mutation") == 1
    assert "helix_rotate" not in ops

    q = quiver(coll)
    assert len(coll) == 8
    assert q.components == ((0, 2, 3, 5), (1, 4, 6, 7))
    # Component of O@rho_j leaves: everything flows into O(1)@rho_2.
    sink = coll.labels.index("O(1)@rho_2")
    for i in (0, 2, 3):
        assert q.arrows[i][sink] == 1
    # Component of the cone: it is the source of all three arrows.
    cone = coll.labels.index("{O@rho_2->O(1)@rho_0}")
    for label in ("O(1)@rho_1", "O(1)@rho_3", "O(1)@rho_4"):
        assert q.arrows[cone][coll.labels.index(label)] == 1


def test_invariant_extraction_scalar_cyclic_d3(c3):
    coll = dsing_collection(c3, 3, "invariant_veronese")
    assert coll.labels == ("O(1)@rho_1", "O(2)@rho_2")
    q = quiver(coll)
    assert q.arrows == ((0, 3), (0, 0))


def test_invariant_extraction_scalar_cyclic_d1_helix(c3):
    coll = dsing_collection(c3, 1, "invariant_veronese")
    assert coll.labels == ("O(1)@rho_1", "O(2)@rho_2", "O(3)@rho_1",
                           "O(4)@rho_2", "O(2)@rho_1", "O(3)@rho_2")
    ops = [e["op"] for e in coll.provenance]
    assert ops.count("helix_rotate") == 2
    assert ops.count("block_sort") == 1
    assert ops.count("right_mutation") == 0
    assert ops.count("transpose") == 7
    q = quiver(coll)
    assert q.components == ((0, 1), (2, 3), (4, 5))
    for i, j in q.components:
        assert q.arrows[i][j] == 3
    assert check_strong(coll).passed


def test_helix_twist_audited_by_serre_duality(c3, monkeypatch):
    # an untwisted class pairs with the row like the object it came from,
    # which breaks chi(E(n+1), F) = (-1)^n chi(F, E) for some old class F
    monkeypatch.setattr("eqcol.excol.twist_kclass", lambda kc, k: kc)
    with pytest.raises(InvalidParameter, match="violates Serre duality"):
        dsing_collection(c3, 1, "invariant_veronese")


def test_invariant_extraction_rejects_non_sl(c4_nonsl):
    with pytest.raises(InvalidParameter):
        dsing_collection(c4_nonsl, 2, "invariant_veronese")


def test_extraction_rejects_bad_divisor(c3):
    with pytest.raises(NotADivisor):
        dsing_collection(c3, 2, "crossed_product")


def test_extraction_rejects_unknown_mode(c3):
    with pytest.raises(InvalidParameter):
        dsing_collection(c3, 3, "orbifold")


# -- twisting ------------------------------------------------------------


def test_tensor_twist_matches_helix_middle_row(c3):
    blocks = veronese_blocks(beilinson_collection(c3), 3)
    twisted = tensor_twist(blocks.pullback_collection(), 2)
    assert twisted.labels == ("O(2)@rho_0", "O(3)@rho_1", "O(4)@rho_2")
    assert twisted.gram_matrix() == blocks.pullback_collection().gram_matrix()
    # K-classes land back inside the window.
    for kc in twisted.kclasses:
        assert len(kc.coeffs) == 9


def test_tensor_twist_preserves_ext_tables(bd2):
    coll = cascade_mutation(beilinson_collection(bd2))
    twisted = tensor_twist(coll, 1)
    for i in range(0, len(coll), 3):
        for j in range(i + 1, len(coll), 2):
            assert twisted.ext_table(i, j) == coll.ext_table(i, j)


# -- Ext from mutation triangles -----------------------------------------


def _table_source(coll, i, j) -> str:
    """Where `ext_table` takes the table (i, j) from when it is not cached
    yet: "closed_form", "triangle" or "hom_complex".  It asks
    `_by_triangles` first, as `ext_table` would, which memoizes the answer
    that `ext_table` then reads."""
    X, Y = coll.objects[i], coll.objects[j]
    if X.is_line_bundle() and Y.is_line_bundle():
        return "closed_form"
    return "hom_complex" if coll._by_triangles(X, Y) is None else "triangle"


def _derived_tables_match(coll) -> int:
    """Every table of the collection that its mutation triangles decide
    equals the table of the pair's Hom complex; returns how many there are.
    A fresh copy of the collection starts from empty tables."""
    coll = coll.subset(range(len(coll)), {"op": "subset", "kind": "test"})
    derived = 0
    for i, j in itertools.product(range(len(coll)), repeat=2):
        X, Y = coll.objects[i], coll.objects[j]
        if X is None or Y is None:
            continue
        source = _table_source(coll, i, j)
        table = coll.ext_table(i, j)
        if source == "triangle":
            derived += 1
            assert table == pair_ext_dims(X, Y), (coll.labels[i], coll.labels[j])
    return derived


def _pipeline_collections(setup, mode, d):
    colls = [cascade_mutation(beilinson_collection(setup))]
    if mode == "crossed_product" or (mode == "invariant_veronese"
                                     and setup.det_trivial()):
        try:
            colls.append(dsing_collection(setup, d, mode))
        except NonConcentratedHom:
            pass  # a bubbling step meets a Hom outside degree 0
    return colls


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_triangle_tables_match_hom_complexes_on_shipped_scenarios(name):
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    setup = build_setup(scenario)
    for coll in _pipeline_collections(setup, scenario.mode, scenario.veronese_d):
        _derived_tables_match(coll)


def test_triangle_tables_match_hom_complexes_on_z4p3():
    colls = _pipeline_collections(cyclic_diagonal(4, [1] * 4),
                                  "invariant_veronese", 1)
    assert sum(_derived_tables_match(coll) for coll in colls) == 142


cyclic_cases = st.integers(1, 5).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), min_size=2,
                                             max_size=4))
).filter(lambda case: gcd(case[0], *case[1]) == 1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(cyclic_cases.map(lambda case: cyclic_diagonal(*case)),
                 st.integers(1, 6).map(binary_dihedral)))
def test_triangle_tables_match_hom_complexes_sweep(setup):
    for coll in _pipeline_collections(setup, "invariant_veronese", 1):
        _derived_tables_match(coll)


def test_z4p3_cascade_check_builds_no_hom_complex(monkeypatch):
    # the tables by where they come from, counted where `ext_table` fills
    # them in
    sources = Counter()
    ext_table = ExcCollection.ext_table

    def counting_tables(self, i, j):
        if (i, j) not in self._ext_cache:
            sources[_table_source(self, i, j)] += 1
        return ext_table(self, i, j)

    monkeypatch.setattr(ExcCollection, "ext_table", counting_tables)
    coll = cascade_mutation(beilinson_collection(cyclic_diagonal(4, [1] * 4)))
    assert sources["hom_complex"] == 0
    sources.clear()
    fresh = coll.subset(range(len(coll)), {"op": "subset", "kind": "test"})
    builds = []
    init = HomComplexData.__init__

    def counting(self, C, D):
        builds.append((C, D))
        init(self, C, D)

    monkeypatch.setattr(HomComplexData, "__init__", counting)
    assert check_exceptional(fresh).passed
    # 6 cones' self-Ext and the 75 backward pairs with a cone
    assert sources == Counter(closed_form=55, triangle=81)
    assert builds == []


@pytest.mark.parametrize("entry", ["diagonal", "backward"])
def test_corrupted_gram_entry_fails_the_triangle_certificate(c3, entry):
    coll = cascade_mutation(beilinson_collection(c3))
    fresh = coll.subset(range(len(coll)), {"op": "subset", "kind": "test"})
    cone = next(i for i, obj in enumerate(fresh.objects)
                if obj.triangle is not None)
    # object 0 is the anchor O@rho_0, ahead of every cone
    i, j = (cone, cone) if entry == "diagonal" else (cone, 0)
    gram = [list(row) for row in fresh.gram_matrix()]
    gram[i][j] += 1
    fresh._gram = tuple(tuple(row) for row in gram)
    with pytest.raises(CertificateFailure):
        fresh.ext_table(i, j)


def _single(obj) -> ExcCollection:
    return ExcCollection(obj.setup, [obj], [obj.kclass()], [obj.label()], [])


def test_triangle_with_unmet_hypothesis_takes_the_hom_complex(bd2):
    def lb(twist, irrep):
        return from_line_bundle(bd2, EqLineBundle(twist, irrep))

    E, F = right_mutation(lb(0, 2), lb(1, 1)), lb(1, 0)
    derived = _single(right_mutation(E, F))
    assert _table_source(derived, 0, 0) == "triangle"
    assert derived.ext_table(0, 0) == {0: 1}
    # a twist drops E's own triangle, so Ext(E, E) is not known
    unknown = _single(right_mutation(E.twisted(0), F))
    assert _table_source(unknown, 0, 0) == "hom_complex"
    assert unknown.ext_table(0, 0) == {0: 1}
    # Ext(F, E) = Hom(E, E) is not zero: the cone of the identity is zero,
    # not exceptional
    O = lb(0, 0)
    zero = _single(right_mutation(O, O))
    assert _table_source(zero, 0, 0) == "hom_complex"
    assert zero.ext_table(0, 0) == {}


# -- audit trail ---------------------------------------------------------


@pytest.mark.parametrize("builder", [
    lambda s: beilinson_collection(s),
    lambda s: cascade_mutation(beilinson_collection(s)),
    lambda s: dsing_collection(s, 1, "invariant_veronese"),
    lambda s: dsing_collection(s, 2, "invariant_veronese"),
    lambda s: dsing_collection(s, 2, "crossed_product"),
])
def test_replay_gram_quaternion(bd2, builder):
    coll = builder(bd2)
    assert replay_gram(coll.provenance) == coll.gram_matrix()
    assert is_unitriangular(coll.gram_matrix())


@pytest.mark.parametrize("builder", [
    lambda s: cascade_mutation(beilinson_collection(s)),
    lambda s: dsing_collection(s, 1, "invariant_veronese"),
    lambda s: dsing_collection(s, 3, "invariant_veronese"),
    lambda s: dsing_collection(s, 3, "crossed_product"),
])
def test_replay_gram_scalar_cyclic(c3, builder):
    coll = builder(c3)
    assert replay_gram(coll.provenance) == coll.gram_matrix()
    assert is_unitriangular(coll.gram_matrix())


def test_euler_pairing_matches_ext_tables(bd2):
    coll = cascade_mutation(beilinson_collection(bd2))
    gram = coll.gram_matrix()
    for i in range(len(coll)):
        for j in range(len(coll)):
            table = coll.ext_table(i, j)
            chi = sum((-1) ** (k % 2) * v for k, v in table.items())
            assert chi == gram[i][j]


# -- the audit can fail ----------------------------------------------------


def _tamper_kclass(bench):
    bench.kclasses[5] = bench.kclasses[5] * 2


def _tamper_gram(bench):
    bench.gram[2][7] += 1


@pytest.mark.parametrize("tamper", [_tamper_kclass, _tamper_gram])
def test_gram_audit_fires_on_tampered_state(bd2, tamper):
    grid = beilinson_collection(bd2)
    clean = _Workbench(grid)
    clean.move_left(1, allow_fallback=False)
    bench = _Workbench(grid)
    tamper(bench)
    with pytest.raises(InvalidParameter, match="Gram conjugation audit failed"):
        bench.move_left(1, allow_fallback=False)


def test_non_unimodular_base_change_rejected(bd2):
    coll = cascade_mutation(beilinson_collection(bd2))
    size = len(coll)
    doubled = [[int(i == j) for j in range(size)] for i in range(size)]
    doubled[0][0] = 2
    assert _int_det(doubled) == 2
    bench = _Workbench(coll)
    with pytest.raises(InvalidParameter, match="not unimodular"):
        bench._record({"op": "transpose"}, {0: {0: 2}})
    trail = list(coll.provenance) + [{"op": "transpose",
                                      "base_change": doubled}]
    with pytest.raises(InvalidParameter, match="non-unimodular"):
        replay_gram(trail)


def test_conjugate_matches_double_sum():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 9)
        gram = [[rng.choice([0, 0, 1, -1, 2, 5]) for _ in range(n)]
                for _ in range(n)]
        U = [[rng.choice([0, 0, 0, 1, -1, 3]) for _ in range(n)]
             for _ in range(n)]
        brute = [[sum(U[i][a] * gram[i][j] * U[j][b]
                      for i in range(n) for j in range(n))
                  for b in range(n)] for a in range(n)]
        assert _conjugate(gram, U) == brute


def test_euler_gram_matches_pairing_double_loop(bd2, c4_nonsl):
    # K^T (B K) against the pairing of each pair on its own, on seeded
    # random K-classes, including a non-SL action
    rng = random.Random(13)
    for setup in (bd2, c4_nonsl):
        width = setup.n_plus_1 * setup.r_plus_1
        for _ in range(20):
            kclasses = [KClass(setup, [rng.choice([0, 0, 0, 1, -1, 2, -3])
                                       for _ in range(width)])
                        for _ in range(rng.randint(1, 9))]
            assert _euler_gram(kclasses) == tuple(
                tuple(euler_pairing(a, b) for b in kclasses) for a in kclasses)
    assert _euler_gram([]) == ()
    with pytest.raises(InvalidParameter, match="different setups"):
        _euler_gram([KClass.basis(bd2, 0, 0), KClass.basis(c4_nonsl, 0, 0)])


def test_int_det_matches_permutation_expansion():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(n)]
             for _ in range(n)]
        expected = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j]
                             for i in range(n) for j in range(i + 1, n))
            term = -1 if inversions % 2 else 1
            for i in range(n):
                term *= M[i][perm[i]]
            expected += term
        assert _int_det(M) == expected


def _random_unimodular_block(rng, k):
    """A k x k integer matrix of determinant +-1: a signed permutation
    times a few elementary row operations."""
    perm = list(range(k))
    rng.shuffle(perm)
    block = [[rng.choice([1, -1]) if perm[i] == j else 0 for j in range(k)]
             for i in range(k)]
    for _ in range(rng.randint(0, 3)):
        if k > 1:
            a, b = rng.sample(range(k), 2)
            factor = rng.choice([1, -1, 2, -3])
            block[a] = [x + factor * y for x, y in zip(block[a], block[b])]
    return block


def test_changed_column_conjugation_matches_dense_oracle():
    # few-column base changes, unimodular or not, against the dense
    # conjugation and the Bareiss determinant of all of U
    rng = random.Random(11)
    unimodular = 0
    for trial in range(300):
        n = rng.randint(1, 9)
        cols = sorted(rng.sample(range(n), rng.randint(0, min(3, n))))
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        if trial % 3:
            block = _random_unimodular_block(rng, len(cols))
        else:
            block = [[rng.choice([0, 1, -1, 2]) for _ in cols] for _ in cols]
        for a, i in enumerate(cols):
            for b, j in enumerate(cols):
                U[i][j] = block[a][b]
        for j in cols:
            for i in range(n):
                if i not in cols:
                    U[i][j] = rng.choice([0, 0, 1, -1, 4])
        moved = {j: {i: U[i][j] for i in range(n) if U[i][j]} for j in range(n)
                 if any(U[i][j] != (i == j) for i in range(n))}
        found = _moved_columns(U, n)
        assert found == moved
        assert _moved_columns(U, n + 1) is None
        assert _unimodular(found) == _is_unimodular(U)
        if not _unimodular(found):
            continue
        unimodular += 1
        gram = [[rng.choice([0, 0, 1, -1, 2, 5]) for _ in range(n)]
                for _ in range(n)]
        expected = _conjugate(gram, U)
        _conjugate_columns(gram, found)
        assert gram == expected
    assert unimodular > 150


def _dense_base_change(entry, old_kclasses, new_kclasses):
    """Oracle: the dense U of a recorded step, built from the entry's own
    fields; a helix column wrapped past the end of its row is the new class
    in coordinates of the old ones."""
    n = len(old_kclasses)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    if entry["op"] == "block_sort":
        for new, old in enumerate(entry["permutation"]):
            U[new][new], U[old][new] = 0, 1
    elif entry["op"] == "helix_rotate":
        positions, shift = entry["positions"], entry["shift"]
        for k, pos in enumerate(positions):
            column = [int(i == positions[(k + shift) % len(positions)])
                      for i in range(n)]
            if k + shift >= len(positions):
                column = _integral_coordinates(new_kclasses[pos], old_kclasses)
            for i in range(n):
                U[i][pos] = column[i]
    else:
        a, b = entry["positions"]
        U[a][a], U[b][a], U[a][b], U[b][b] = 0, 1, 1, -entry["chi"]
    return U


def test_record_matches_full_gram_on_every_shipped_step(monkeypatch):
    # every step of every shipped scenario: the incrementally audited Gram
    # equals the Euler Gram of the new classes recomputed from scratch, and
    # the old Gram conjugated by the dense oracle; the stored base change
    # is the one the entry's fields describe, and its columns express the
    # new K-classes in the old ones
    record = _Workbench._record
    steps = []

    def checked(bench, entry, moved):
        before = [list(row) for row in bench.gram]
        old_kclasses = list(bench._seen)
        record(bench, entry, moved)
        full = [list(row) for row in _euler_gram(bench.kclasses)]
        assert bench.gram == full
        assert bench._audited == full
        U = [list(row) for row in entry["base_change"]]
        assert U == _dense_base_change(entry, old_kclasses, bench.kclasses)
        assert _is_unimodular(U)
        assert _conjugate(before, U) == full
        for j, kc in enumerate(bench.kclasses):
            combination = KClass.zero(kc.setup)
            for i, old in enumerate(old_kclasses):
                combination = combination + old * U[i][j]
            assert combination == kc
        steps.append(entry["op"])

    monkeypatch.setattr(_Workbench, "_record", checked)
    for path in sorted(SCENARIOS.glob("*.json")):
        assert run_scenario(path)["passed"] is True
    assert {"transpose", "right_mutation", "block_sort",
            "helix_rotate"} <= set(steps)


@pytest.mark.parametrize("setup_name, build", [
    ("bd2", lambda s: cascade_mutation(beilinson_collection(s))),
    ("c3", lambda s: cascade_mutation(beilinson_collection(s))),
    ("c3", lambda s: dsing_collection(s, 1, "invariant_veronese")),
], ids=["bd2_cascade", "c3_cascade", "c3_helix_dsing"])
def test_unit_rows_are_shared_by_the_steps_of_one_workbench(setup_name, build,
                                                            request):
    coll = build(request.getfixturevalue(setup_name))
    changes = [e["base_change"] for e in coll.provenance if "base_change" in e]
    assert len(changes) > 1
    n = len(changes[0])
    touched = 0
    for i in range(n):
        unit = tuple(int(i == j) for j in range(n))
        rows = [U[i] for U in changes if U[i] == unit]
        touched += len(changes) - len(rows)
        assert all(row is rows[0] for row in rows)
    assert touched


@pytest.mark.parametrize("trail, match", [
    ([{"op": "subset", "kept": [0]}], "provenance has no base Gram"),
    ([{"op": "transpose", "base_change": [[1]]}], "provenance has no base Gram"),
    ([{"op": "subset", "kept": [0, 2]}], "subset kept is not a list of Gram indices"),
    ([{"op": "subset", "kept": [-1]}], "subset kept is not a list of Gram indices"),
    ([{"op": "subset"}], "subset kept is not a list of Gram indices"),
    ([{"op": "transpose"}], "transpose base change does not fit"),
    ([{"op": "block_sort", "base_change": [[0, 1]]}],
     "block_sort base change does not fit"),
    ([{"op": "helix_rotate", "base_change": [[1, 0], 5]}],
     "helix_rotate base change does not fit"),
    ([{"op": "right_mutation", "base_change": [[1, 1], [1, 1]]}],
     "non-unimodular base change in right_mutation"),
    ([{"op": "right_mutation", "base_change": [[0, 1], [1, 0.5]]}],
     "right_mutation base change does not fit the Gram as a 2 x 2 integer"),
    ([{"op": "transpose", "base_change": [["a", 1], [1, 0]]}],
     "transpose base change does not fit"),
    ([{"op": "block_sort", "base_change": [[True, False], [False, True]]}],
     "block_sort base change does not fit"),
    ([{"op": "beilinson"}], "beilinson base Gram is not a square integer"),
    ([{"op": "beilinson", "gram": 5}], "beilinson base Gram"),
    ([{"op": "beilinson", "gram": [[1, "x"], [0, 1]]}], "beilinson base Gram"),
    ([{"op": "beilinson", "gram": [[1, 2], [0]]}], "beilinson base Gram"),
    (["subset"], "provenance entry 1 is not a dict"),
    ([{"op": "subset", "kept": [1, 1]}],
     "subset kept is not a list of Gram indices, each once"),
    ([{"op": "subset", "kept": [True]}], "subset kept is not a list"),
], ids=["subset_first", "base_change_first", "kept_past_end",
        "kept_negative", "kept_missing", "base_change_missing",
        "base_change_short", "base_change_row_not_a_list",
        "base_change_singular", "base_change_float", "base_change_string",
        "base_change_bool", "gram_missing", "gram_not_a_list",
        "gram_string_entry", "gram_not_square", "entry_not_a_dict",
        "kept_repeats", "kept_bool"])
def test_replay_gram_refuses_a_malformed_trail(trail, match):
    base = {"op": "beilinson", "n_plus_1": 2, "r_plus_1": 1,
            "gram": [[1, 2], [0, 1]]}
    if match != "provenance has no base Gram":
        trail = [base] + trail
    with pytest.raises(InvalidParameter, match=match):
        replay_gram(trail)


@pytest.mark.parametrize("case, index", [
    ("kept", [0, 0]), ("kept", [-1]), ("kept", [99]),
    ("weight", -1), ("weight", 3), ("weight", 5),
], ids=["kept_repeats", "kept_negative", "kept_past_end",
        "weight_negative", "weight_e", "weight_past_end"])
def test_subset_refuses_what_replay_gram_refuses(c3, case, index):
    # a subset that repeats an index or leaves the collection would record
    # a trail that replay_gram refuses, so it is refused when it is made;
    # so is a Veronese weight outside 0..e-1 (e = 3 here)
    coll = beilinson_collection(c3)
    entry = {"op": "subset", "kind": "test"}
    if case == "kept":
        with pytest.raises(InvalidParameter,
                           match="subset kept is not a list of indices, each once"):
            coll.subset(index, entry)
        with pytest.raises(InvalidParameter, match="subset kept is not a list"):
            replay_gram(list(coll.provenance) + [dict(entry, kept=index)])
        edge = coll.subset([len(coll) - 1, 0], entry)
        assert edge.labels == (coll.labels[-1], coll.labels[0])
        assert replay_gram(edge.provenance) == edge.gram_matrix()
    else:
        blocks = veronese_blocks(coll, 3)
        assert blocks.e == 3
        with pytest.raises(InvalidParameter, match=rf"weight {index} is outside 0\.\.2"):
            blocks.block_collection(index)
        last = blocks.block_collection(2)
        assert last.provenance[-1]["weight"] == 2
        assert replay_gram(last.provenance) == last.gram_matrix()


# -- quiver through arrow targets ----------------------------------------


def _oracle_h0_coordinates(data, cm):
    """H^0 coordinates through the boundary span and cycle representatives
    of `_h0`, whatever the dimensions of Hom^-1 and Hom^1."""
    span, position, count = data._h0
    coords, residual = eliminate_along(data._sparse_vector(cm), span, position)
    assert not residual
    return [coords.get(i, CycNum.zero()) for i in range(count, len(span))]


def _oracle_arrows(coll):
    """Arrows with the composites through every middle k where Hom(i, k)
    and Hom(k, j) are both nonzero, ranked densely; and the number of rows
    formed."""
    size = len(coll)
    hom = [[coll.ext_table(i, j).get(0, 0) if i < j else 0
            for j in range(size)] for i in range(size)]
    bases = {}

    def basis(i, k):
        if (i, k) not in bases:
            bases[(i, k)] = cohomology_basis(coll.objects[i], coll.objects[k])
        return bases[(i, k)]

    arrows = [[0] * size for _ in range(size)]
    count = 0
    for i in range(size):
        for j in range(i + 1, size):
            if not hom[i][j]:
                continue
            data = hom_complex(coll.objects[i], coll.objects[j])
            rows = [_oracle_h0_coordinates(data, compose_chain_maps(f, g))
                    for k in range(i + 1, j) if hom[i][k] and hom[k][j]
                    for f in basis(i, k) for g in basis(k, j)]
            count += len(rows)
            arrows[i][j] = hom[i][j] - rank_of_rows(rows)
    return tuple(tuple(row) for row in arrows), count


def _quiver_rows(monkeypatch):
    """Record the quiver's rows: one composite, and one row, per
    `compose_chain_maps` call."""
    counts = []
    true_compose = excol_mod.compose_chain_maps

    def counting(f, g):
        counts.append(1)
        return true_compose(f, g)

    monkeypatch.setattr(excol_mod, "compose_chain_maps", counting)
    return counts


def _arrows_match(coll, counts):
    """The quiver, after checking its arrows against the oracle's, with the
    oracle's row count and the quiver's."""
    counts.clear()
    q = quiver(coll)
    expected, oracle_rows = _oracle_arrows(coll)
    assert q.arrows == expected
    return q, oracle_rows, sum(counts)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_quiver_arrows_match_every_middle_on_shipped_scenarios(name, monkeypatch):
    counts = _quiver_rows(monkeypatch)
    checked = []

    def checking(coll):
        q, oracle_rows, rows = _arrows_match(coll, counts)
        assert rows <= oracle_rows
        checked.append(coll)
        return q

    monkeypatch.setattr(scenario_mod, "quiver", checking)
    report = run_scenario(SCENARIOS / f"{name}.json")
    assert report["passed"] is True
    assert len(checked) == ("quiver" in report["tasks"])


@pytest.mark.parametrize("case, rows", [
    ("bd2 dsing", (0, 0)),
    ("z4p3 dsing", (64, 64)),
    ("z5p4 dsing", (1000, 625)),
])
def test_quiver_arrows_match_every_middle(case, rows, monkeypatch):
    # The bd2 dsing collection is the cascade with its anchors removed, and
    # holds a cone; z4p3 has an arrow into every middle it composes
    # through, and Z/5 on P^4 composes through 375 fewer rows.
    counts = _quiver_rows(monkeypatch)
    setup = {"bd2 dsing": lambda: binary_dihedral(2),
             "z4p3 dsing": lambda: cyclic_diagonal(4, [1] * 4),
             "z5p4 dsing": lambda: cyclic_diagonal(5, [1] * 5)}[case]()
    coll = dsing_collection(setup, 1, "invariant_veronese")
    if case == "bd2 dsing":
        assert any(obj.triangle is not None for obj in coll.objects)
    assert _arrows_match(coll, counts)[1:] == rows


def test_h0_coordinates_without_neighbours_are_the_hom0_coordinates(bd2):
    # Hom^-1 = Hom^1 = 0 between line bundles: no boundaries, every vector a
    # cycle, and the H^0 rows are the unit vectors of Hom^0
    coll = beilinson_collection(bd2)
    checked = 0
    for i, j in itertools.combinations(range(len(coll)), 2):
        data = hom_complex(coll.objects[i], coll.objects[j])
        if not data.dim(0):
            continue
        assert not data.dim(-1) and not data.dim(1)
        size = data.dim(0)
        span, _, count = data._h0
        assert count == 0
        assert span == [{r: CycNum.one()} for r in range(size)]
        for f in cohomology_basis(coll.objects[i], coll.objects[j]):
            coords = data.h0_coordinates(f)
            assert set(coords) <= set(range(size)) and all(coords.values())
            assert ([coords.get(r, CycNum.zero()) for r in range(size)]
                    == _oracle_h0_coordinates(data, f))
            checked += 1
    assert checked == 8
