"""Acceptance suite: the seven headline checks, one printed line each.

Every assertion is exact integer or exact character equality; the whole
module runs in well under a minute.  Expected values come from
independent oracles computed in this file (brute-force trace averages,
series division, principal-minor expansions) or from frozen fixtures.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from eqcol.cohomology import EqLineBundle, ext_dim_equivariant
from eqcol.complexes import ext_dims, from_line_bundle, pair_ext_dims
from eqcol.cyclotomic import CycNum
from eqcol.excol import (beilinson_collection, cascade_mutation,
                         check_exceptional, check_strong, dsing_collection,
                         is_unitriangular, quiver, replay_gram,
                         veronese_blocks)
from eqcol.homspaces import hom_space
from eqcol.linalg import CycMatrix
from eqcol.report import emit_report_json
from eqcol.reps import (CharacterVec, binary_dihedral, cyclic_diagonal,
                        molien_dimension)
from eqcol.scenario import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

GOLDEN_SCENARIOS = [
    "q8_d1",
    "q8_veronese_d2",
    "q8_crossed_veronese_d2",
    "q8_explicit",
    "z3_d1",
    "z3_veronese_d3",
    "z3_crossed_d3",
]


@contextmanager
def _line(capsys, n, desc):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"criterion {n}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"criterion {n}: PASS - {desc}")


@pytest.fixture(scope="module")
def golden():
    return {
        "bd2": binary_dihedral(2),
        "c3": cyclic_diagonal(3, [1, 1, 1]),
        "z2": cyclic_diagonal(2, [1, 1]),
        "c4": cyclic_diagonal(4, [1, 0]),
    }


@pytest.fixture(scope="module")
def golden_runs(golden):
    runs = {}
    for key in ("bd2", "c3"):
        setup = golden[key]
        grid = beilinson_collection(setup)
        runs[key, "grid"] = grid
        runs[key, "cascade"] = cascade_mutation(grid)
        for d in (1, setup.n_plus_1):
            runs[key, "crossed", d] = dsing_collection(
                setup, d, "crossed_product")
            runs[key, "invariant", d] = dsing_collection(
                setup, d, "invariant_veronese")
    return runs


# -- independent oracles -----------------------------------------------------


def _monomials(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for rest in _monomials(nvars - 1, degree - head):
            yield (head,) + rest


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, CycNum.zero()) + ca * cb
    return out


def _brute_sym_trace(mat, m):
    """Trace on degree-m monomials, by expanding the substitution action."""
    dim = mat.nrows
    forms = []
    for i in range(dim):
        form = {}
        for j in range(dim):
            unit = tuple(1 if t == j else 0 for t in range(dim))
            form[unit] = mat.rows[i][j]
        forms.append(form)
    total = CycNum.zero()
    for alpha in _monomials(dim, m):
        poly = {(0,) * dim: CycNum.one()}
        for i, e in enumerate(alpha):
            for _ in range(e):
                poly = _poly_mul(poly, forms[i])
        total = total + poly.get(alpha, CycNum.zero())
    return total


def _brute_ext_trace(mat, k):
    """Trace on the k-th exterior power: sum of principal k-minors."""
    if k == 0:
        return CycNum.one()
    total = CycNum.zero()
    for subset in itertools.combinations(range(mat.nrows), k):
        minor = CycMatrix([[mat.rows[i][j] for j in subset] for i in subset])
        total = total + minor.det()
    return total


def _series_coefficients(generator_degrees, relation_degree, upto):
    """Coefficients of (1 - t^rel) / prod(1 - t^deg), exact integers."""
    den = [0] * (upto + 1)
    den[0] = 1
    for d in generator_degrees:
        new = [0] * (upto + 1)
        for i in range(upto + 1):
            if den[i]:
                new[i] += den[i]
                if i + d <= upto:
                    new[i + d] -= den[i]
        den = new
    num = [0] * (upto + 1)
    num[0] = 1
    if relation_degree <= upto:
        num[relation_degree] = -1
    coeffs = []
    for m in range(upto + 1):
        coeffs.append(num[m] - sum(coeffs[i] * den[m - i] for i in range(m)))
    return coeffs


# -- the seven criteria ------------------------------------------------------


def test_criterion_1_quaternion_beilinson_quiver(golden, golden_runs, capsys):
    with _line(capsys, 1, "quaternion Beilinson layer Homs form the affine"
               " D4 star and the grid is strong"):
        setup = golden["bd2"]
        coll = golden_runs["bd2", "grid"]
        for j in range(5):
            for k in range(5):
                same_layer = coll.ext_table(j, k)
                assert same_layer == ({0: 1} if j == k else {})
                expected = 1 if (j == 2) != (k == 2) else 0
                cross = coll.ext_table(j, 5 + k)
                assert cross == ({0: expected} if expected else {})
                # the concrete invariant hom space agrees with the count
                assert len(hom_space(setup, 1, j, k)) == expected
        assert check_exceptional(coll).passed
        assert check_strong(coll).passed


def test_criterion_2_cascade_and_anchor_removal(golden, golden_runs, capsys):
    with _line(capsys, 2, "cascade plus anchor removal leaves an 8-object"
               " strong collection splitting into the two D4 quivers"):
        setup = golden["bd2"]
        cascade = golden_runs["bd2", "cascade"]
        assert cascade.labels[0] == "O@rho_0"
        assert cascade.labels[1] == "O(1)@rho_0"
        reduced = cascade.subset(tuple(range(2, len(cascade))),
                                 {"op": "subset", "kind": "anchor_removal"})
        assert len(reduced) == 8
        assert check_exceptional(reduced).passed
        assert check_strong(reduced).passed
        # the pipeline extraction is the same collection
        pipe = golden_runs["bd2", "invariant", 1]
        assert list(pipe.labels) == list(reduced.labels)
        assert list(pipe.kclasses) == list(reduced.kclasses)
        q = quiver(reduced)
        cone = "{O@rho_2->O(1)@rho_0}"
        arrows = {}
        for i, a in enumerate(q.labels):
            for j, b in enumerate(q.labels):
                if q.arrows[i][j]:
                    arrows[a, b] = q.arrows[i][j]
        assert arrows == {
            ("O@rho_1", "O(1)@rho_2"): 1,
            ("O@rho_3", "O(1)@rho_2"): 1,
            ("O@rho_4", "O(1)@rho_2"): 1,
            (cone, "O(1)@rho_1"): 1,
            (cone, "O(1)@rho_3"): 1,
            (cone, "O(1)@rho_4"): 1,
        }
        assert len(q.components) == 2
        node_sets = sorted(sorted(q.labels[i] for i in comp)
                           for comp in q.components)
        assert node_sets == sorted([
            sorted(["O@rho_1", "O@rho_3", "O@rho_4", "O(1)@rho_2"]),
            sorted([cone, "O(1)@rho_1", "O(1)@rho_3", "O(1)@rho_4"]),
        ])


def test_criterion_3_halving_veronese(golden, golden_runs, capsys):
    with _line(capsys, 3, "d=2 weight blocks are fully orthogonal, the"
               " pullback block is as expected, and extraction is the D4"
               " Dynkin star"):
        grid = golden_runs["bd2", "grid"]
        blocks = veronese_blocks(grid, 2)
        assert blocks.e == 2
        pull = blocks.pullback_collection()
        assert sorted(pull.labels) == sorted(
            ["O@rho_0", "O@rho_1", "O@rho_3", "O@rho_4", "O(1)@rho_2"])
        for u, block_u in enumerate(blocks.blocks):
            for v, block_v in enumerate(blocks.blocks):
                if u == v:
                    continue
                for i in block_u:
                    for j in block_v:
                        assert grid.ext_table(i, j) == {}
        coll = golden_runs["bd2", "invariant", 2]
        q = quiver(coll)
        assert list(q.labels) == ["O@rho_1", "O@rho_3", "O@rho_4",
                                  "O(1)@rho_2"]
        assert [list(r) for r in q.arrows] == [
            [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]]
        assert len(q.components) == 1


def test_criterion_4_cubic_cyclic_family(golden, golden_runs, capsys):
    with _line(capsys, 4, "Z/3 rows are orthogonal with surjective"
               " compositions, and all three extractions come out right"):
        grid = golden_runs["c3", "grid"]
        blocks = veronese_blocks(grid, 3)
        assert [list(b) for b in blocks.blocks] == [
            [0, 4, 8], [1, 5, 6], [2, 3, 7]]
        for u in range(3):
            for v in range(3):
                if u == v:
                    continue
                for i in blocks.blocks[u]:
                    for j in blocks.blocks[v]:
                        assert grid.ext_table(i, j) == {}
        q = quiver(grid)
        for row in blocks.blocks:
            a, b, c = row  # twists 0, 1, 2 inside one weight row
            assert q.hom_dims[a][b] == 3 and q.arrows[a][b] == 3
            assert q.hom_dims[b][c] == 3 and q.arrows[b][c] == 3
            # 9 composites span the 6-dimensional target: no new arrows
            assert q.hom_dims[a][c] == 6 and q.arrows[a][c] == 0
        inv1 = golden_runs["c3", "invariant", 1]
        assert len(inv1) == 6
        q1 = quiver(inv1)
        assert [len(comp) for comp in q1.components] == [2, 2, 2]
        for i, j in q1.components:
            assert q1.arrows[i][j] == 3 and q1.arrows[j][i] == 0
        cr3 = golden_runs["c3", "crossed", 3]
        assert len(cr3) == 6
        assert check_exceptional(cr3).passed
        assert check_strong(cr3).passed
        q3 = quiver(cr3)
        assert [len(comp) for comp in q3.components] == [2, 2, 2]
        for i, j in q3.components:
            assert q3.arrows[i][j] == 3 and q3.arrows[j][i] == 0
        # d = 1 removal drains the whole grid
        cr1 = golden_runs["c3", "crossed", 1]
        assert len(cr1) == 0
        assert check_exceptional(cr1).passed
        assert check_strong(cr1).passed


def test_criterion_5_molien_series(golden, capsys):
    with _line(capsys, 5, "quaternion invariant dimensions m=0..24 equal"
               " the brute-force trace average and the degree-12"
               " hypersurface series"):
        setup = golden["bd2"]
        group = setup.group
        dims = [molien_dimension(setup, m) for m in range(25)]
        for m, expected in enumerate(dims):
            total = CycNum.zero()
            for g in group.elements:
                total = total + _brute_sym_trace(g, m)
            assert total.as_rat() == Fraction(expected * group.order)
        # two independent quartic invariants force dimension 2 at m = 4;
        # generators of degrees 4, 4, 6 with one relation in degree 12
        # reproduce the whole table
        assert dims[4] == 2
        assert dims == _series_coefficients([4, 4, 6], 12, 24)


def test_criterion_6_property_suites(golden, golden_runs, capsys):
    with _line(capsys, 6, "Koszul, Serre, Gram-audit, Newton-trace,"
               " closed-form-ext and size-formula suites all hold"):
        _suite_koszul(golden)
        _suite_serre(golden)
        _suite_gram_audits(golden_runs)
        _suite_newton_traces(golden)
        _suite_closed_form_ext(golden)
        _suite_size_formulas(golden, golden_runs)


def _suite_koszul(golden):
    # alternating sum of Sym^(m-k) (x) Lambda^k of the dual action is the
    # trivial character at m = 0 and vanishes identically elsewhere
    for setup in golden.values():
        n1 = setup.n_plus_1
        zero = CharacterVec.zero(setup.group)
        trivial = CharacterVec.trivial(setup.group)
        for m in range(-2 * n1, 2 * n1 + 1):
            total = zero
            for k in range(n1 + 1):
                if m - k < 0:
                    continue
                term = setup.sym_dual(m - k) * setup.ext_dual(k)
                total = total + (term if k % 2 == 0 else -term)
            assert total == (trivial if m == 0 else zero)


def _suite_serre(golden):
    # dim Ext^k(A, B) == dim Ext^(n-k)(B, A(-n-1) (x) det-inverse) on all
    # grid pairs; H^n(O(-n-1)) carries det, so the dualizing twist is its
    # inverse
    for key in ("bd2", "c3", "c4"):
        setup = golden[key]
        n = setup.n
        det_inv = setup.det_character().dual()
        det_twist = {}
        for a, rho in enumerate(setup.irreps):
            chi = rho.character() * det_inv
            matches = [t for t, tau in enumerate(setup.irreps)
                       if tau.character() == chi]
            assert len(matches) == 1
            det_twist[a] = matches[0]
        r1 = setup.r_plus_1
        for i in range(n + 1):
            for j in range(n + 1):
                for a in range(r1):
                    for b in range(r1):
                        for k in range(n + 1):
                            lhs = ext_dim_equivariant(
                                setup, EqLineBundle(i, a),
                                EqLineBundle(j, b), k)
                            rhs = ext_dim_equivariant(
                                setup, EqLineBundle(j, b),
                                EqLineBundle(i - n - 1, det_twist[a]), n - k)
                            assert lhs == rhs


def _suite_gram_audits(golden_runs):
    for coll in golden_runs.values():
        gram = coll.gram_matrix()
        assert is_unitriangular(gram)
        assert replay_gram(coll.provenance) == gram
        for entry in coll.provenance:
            U = entry.get("base_change")
            if U is None:
                continue
            cyc = CycMatrix([[CycNum.from_rat(Fraction(v)) for v in row]
                             for row in U])
            assert abs(cyc.det().as_rat()) == 1


def _suite_newton_traces(golden):
    for setup in golden.values():
        group = setup.group
        reps = [group.elements[group.class_representative(c)]
                for c in range(len(group.classes))]
        for m in range(6):
            chi = setup.sym(m)
            for c, mat in enumerate(reps):
                assert chi.values[c] == _brute_sym_trace(mat, m)
        for k in range(setup.n_plus_1 + 1):
            chi = setup.ext(k)
            for c, mat in enumerate(reps):
                assert chi.values[c] == _brute_ext_trace(mat, k)


def _suite_closed_form_ext(golden):
    rng = random.Random(20260819)
    for key in ("bd2", "c3"):
        setup = golden[key]
        n = setup.n
        r1 = setup.r_plus_1
        for _ in range(100):
            while True:
                p = rng.randrange(-3, 4)
                q = rng.randrange(-3, 4)
                if q - p >= -n:
                    break
            a = rng.randrange(r1)
            b = rng.randrange(r1)
            deg_c = rng.randrange(-2, 3)
            deg_d = rng.randrange(-2, 3)
            C = from_line_bundle(setup, EqLineBundle(p, a), degree=deg_c)
            D = from_line_bundle(setup, EqLineBundle(q, b), degree=deg_d)
            expected = {}
            for k in (0, n):
                dim = ext_dim_equivariant(setup, EqLineBundle(p, a),
                                          EqLineBundle(q, b), k)
                if dim:
                    expected[k + deg_d - deg_c] = dim
            assert ext_dims(C, D) == expected
            assert pair_ext_dims(C, D) == expected


def _suite_size_formulas(golden, golden_runs):
    for key in ("bd2", "c3"):
        setup = golden[key]
        n1 = setup.n_plus_1
        r1 = setup.r_plus_1
        assert len(golden_runs[key, "grid"]) == n1 * r1
        assert len(golden_runs[key, "cascade"]) == n1 * r1
        for d in (1, n1):
            a = n1 // d
            assert len(golden_runs[key, "crossed", d]) == n1 * r1 - a * r1
            e = setup.central_scalars(d).e
            assert len(golden_runs[key, "invariant", d]) == n1 * r1 // e - a


def test_criterion_7_deterministic_reports(capsys):
    with _line(capsys, 7, "scenario reports byte-match the committed"
               " fixtures on repeated runs"):
        for name in GOLDEN_SCENARIOS:
            expected = (FIXTURES / f"{name}.report.json").read_text()
            first = emit_report_json(run_scenario(SCENARIOS / f"{name}.json"))
            second = emit_report_json(run_scenario(SCENARIOS / f"{name}.json"))
            assert first == expected
            assert second == expected
