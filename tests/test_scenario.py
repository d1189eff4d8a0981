"""Scenario parsing, validation, and pipeline reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqcol
from eqcol.cli import main
from eqcol.errors import InvalidParameter, ParseError, ValidationError
from eqcol.report import emit_report_json
from eqcol.reps import Setup, irrep_from_images
from eqcol.scenario import (Scenario, _parse_matrix, build_setup,
                            load_scenario, parse_scenario, run_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

GOLDEN_NAMES = [
    "q8_d1",
    "q8_veronese_d2",
    "q8_crossed_veronese_d2",
    "q8_explicit",
    "z3_d1",
    "z3_veronese_d3",
    "z3_crossed_d3",
]


def minimal(**overrides):
    data = {
        "name": "t",
        "group": {"kind": "binary_dihedral", "l": 2},
        "n_plus_1": 2,
        "tasks": ["beilinson"],
    }
    data.update(overrides)
    return data


# -- parsing ----------------------------------------------------------------


def test_parse_minimal():
    sc = parse_scenario(minimal())
    assert isinstance(sc, Scenario)
    assert sc.mode == "beilinson_only"
    assert sc.tasks == ({"task": "beilinson"},)


def test_parse_rejects_non_object():
    with pytest.raises(ValidationError, match="JSON object"):
        parse_scenario([1, 2])


def test_parse_rejects_unknown_field():
    with pytest.raises(ValidationError, match="unknown scenario fields: frob"):
        parse_scenario(minimal(frob=1))


def test_parse_rejects_bad_name():
    with pytest.raises(ValidationError, match="name"):
        parse_scenario(minimal(name=""))


@pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "a\\b", "a\0b",
                                  ".", ".."])
def test_parse_rejects_a_name_that_is_not_a_plain_file_name(name):
    # the name becomes the DOT file name, so it may not leave the directory
    with pytest.raises(ValidationError, match="plain file name"):
        parse_scenario(minimal(name=name))


def test_parse_rejects_missing_group():
    data = minimal()
    del data["group"]
    with pytest.raises(ValidationError, match="group"):
        parse_scenario(data)


def test_parse_rejects_bad_n():
    with pytest.raises(ValidationError, match="n_plus_1"):
        parse_scenario(minimal(n_plus_1=0))


def test_parse_rejects_bad_mode():
    with pytest.raises(ValidationError, match="mode"):
        parse_scenario(minimal(mode="sideways"))


def test_parse_rejects_unknown_task():
    with pytest.raises(ValidationError, match="unknown task 'frobnicate'"):
        parse_scenario(minimal(tasks=["frobnicate"]))


def test_parse_rejects_duplicate_task():
    with pytest.raises(ValidationError, match="duplicate task"):
        parse_scenario(minimal(tasks=["beilinson", "beilinson"]))


def test_parse_rejects_twist_without_k():
    with pytest.raises(ValidationError, match="twist task requires"):
        parse_scenario(minimal(tasks=["twist"]))


def test_parse_rejects_task_options():
    with pytest.raises(ValidationError, match="accepts no options"):
        parse_scenario(minimal(tasks=[{"task": "check", "loud": True}]))


def test_parse_rejects_bad_molien_degree():
    with pytest.raises(ValidationError, match="max_degree"):
        parse_scenario(minimal(tasks=[{"task": "molien", "max_degree": -1}]))


def test_parse_veronese_task_needs_d():
    with pytest.raises(ValidationError, match="veronese_d is missing"):
        parse_scenario(minimal(tasks=["blocks"]))


def test_parse_veronese_d_must_divide():
    data = minimal(tasks=["blocks"], veronese_d=3)
    with pytest.raises(ValidationError, match="must divide"):
        parse_scenario(data)


def test_parse_dsing_needs_mode():
    data = minimal(tasks=["dsing"], veronese_d=2)
    with pytest.raises(ValidationError, match="extraction mode"):
        parse_scenario(data)


def test_parse_rejects_unknown_output():
    with pytest.raises(ValidationError, match="unknown output"):
        parse_scenario(minimal(output={"pdf": True}))


def test_tasks_sorted_into_dependency_order():
    sc = parse_scenario(minimal(
        tasks=["quiver", "check", "cascade", "beilinson"]))
    assert [t["task"] for t in sc.tasks] == [
        "beilinson", "cascade", "check", "quiver"]


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "group": }\n')
    with pytest.raises(ParseError, match=r"broken\.json: line 2, column 12"):
        load_scenario(path)


def test_load_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="nope"):
        load_scenario(tmp_path / "nope.json")


# -- group construction -----------------------------------------------------


def test_build_setup_rejects_mismatched_n():
    sc = parse_scenario(minimal(n_plus_1=3))
    with pytest.raises(ValidationError, match="does not match"):
        build_setup(sc)


def test_build_setup_rejects_unknown_kind():
    sc = parse_scenario(minimal(group={"kind": "sporadic"}))
    with pytest.raises(ValidationError, match="unknown group kind"):
        build_setup(sc)


def test_build_setup_rejects_missing_group_fields():
    sc = parse_scenario(minimal(group={"kind": "cyclic_diagonal", "m": 3}))
    with pytest.raises(ValidationError, match="missing fields: weights"):
        build_setup(sc)


def test_explicit_group_matches_builtin():
    sc = load_scenario(SCENARIOS / "q8_explicit.json")
    setup = build_setup(sc)
    assert setup.group.order == 8
    assert [r.dim for r in setup.irreps] == [1, 1, 2, 1, 1]
    assert [r.name for r in setup.irreps] == [
        "rho_0", "rho_1", "rho_2", "rho_3", "rho_4"]


def test_explicit_group_rejects_conductor_violation():
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    data["group"]["conductor"] = 2
    with pytest.raises(ValidationError, match="outside 2"):
        build_setup(parse_scenario(data))


def test_explicit_group_rejects_bad_literal():
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    data["group"]["generators"][0][0][0] = "z4 +"
    with pytest.raises(ValidationError, match="bad entry"):
        build_setup(parse_scenario(data))


def test_explicit_group_rejects_wrong_irrep():
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    data["group"]["irreps"][1]["images"] = [[["1"]], [["1"]]]
    with pytest.raises(ValidationError):
        build_setup(parse_scenario(data))


def test_explicit_group_rejects_non_multiplicative_irrep(tmp_path, capsys):
    # rho_1 sends the first generator to 1 and the second to i, but the two
    # generators have equal squares in Q8 while 1 != i^2: the images extend
    # along the words, and the one multiplicativity check, run by Setup,
    # refuses them.
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    data["group"]["irreps"][1]["images"] = [[["1"]], [["z4"]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert "rho_1 is not multiplicative" in capsys.readouterr().err

    group = build_setup(load_scenario(SCENARIOS / "q8_explicit.json")).group
    irreps = [irrep_from_images(group, j, entry["name"],
                                [_parse_matrix(m, 4) for m in entry["images"]])
              for j, entry in enumerate(data["group"]["irreps"])]
    with pytest.raises(InvalidParameter, match="rho_1 is not multiplicative"):
        Setup(group, irreps)


def _explicit_with_conductor(conductor):
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    data["group"]["conductor"] = conductor
    return data


NON_INTEGERS = {
    "n_plus_1_true": minimal(n_plus_1=True, group={"kind": "cyclic_diagonal",
                                                   "m": 2, "weights": [1]}),
    "veronese_d_true": minimal(veronese_d=True),
    "twist_k_true": minimal(tasks=["beilinson", {"task": "twist", "k": True}]),
    "max_degree_true": minimal(tasks=[{"task": "molien", "max_degree": True}]),
    "m_true": minimal(group={"kind": "cyclic_diagonal", "m": True,
                             "weights": [1, 1]}),
    "weights_true": minimal(group={"kind": "cyclic_diagonal", "m": 2,
                                   "weights": [1, True]}),
    "l_true": minimal(group={"kind": "binary_dihedral", "l": True}),
    **{f"conductor_{name}": _explicit_with_conductor(value)
       for name, value in [("0", 0), ("minus_4", -4), ("float", 4.0),
                           ("string", "4"), ("true", True), ("null", None)]},
}


@pytest.mark.parametrize("data", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_integer_fields_reject_bools_and_non_integers(data, tmp_path, capsys):
    # JSON true loads as a bool, which is an int to isinstance; every
    # integer field refuses it, and the conductor must be a positive int
    with pytest.raises(ValidationError):
        run_scenario(parse_scenario(data))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().out == ""


def _explicit_with(path, value):
    """q8_explicit with the field at the given key path set to value."""
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    *keys, last = path
    node = data
    for key in keys:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[last] = value
    return data


BAD_EXPLICIT_FIELDS = {
    "generators_int": (("group", "generators"), 5),
    "generators_object": (("group", "generators"), {"a": 1}),
    "images_int": (("group", "irreps", 1, "images"), 5),
    "images_string": (("group", "irreps", 1, "images"), "1"),
    "name_int": (("group", "irreps", 1, "name"), 5),
    "name_empty": (("group", "irreps", 1, "name"), ""),
    "name_null": (("group", "irreps", 1, "name"), None),
    "dot_string": (("output", "dot"), "no"),
    "dot_int": (("output", "dot"), 0),
}


@pytest.mark.parametrize("path, value", BAD_EXPLICIT_FIELDS.values(),
                         ids=BAD_EXPLICIT_FIELDS.keys())
def test_explicit_fields_of_the_wrong_type_are_validation_errors(path, value):
    # generators and images must be lists, an irrep name a nonempty string
    # and output.dot a bool; none of them may reach a TypeError or run
    with pytest.raises(ValidationError):
        run_scenario(parse_scenario(_explicit_with(path, value)))


@pytest.mark.parametrize("dot", [True, False])
def test_output_dot_takes_a_bool(dot):
    report = run_scenario(parse_scenario(
        _explicit_with(("output", "dot"), dot) | {"tasks": ["beilinson", "quiver"]}))
    assert ("dot" in report["tasks"]["quiver"]) is dot


def test_invariant_mode_rejects_non_sl_group():
    data = minimal(
        group={"kind": "cyclic_diagonal", "m": 4, "weights": [1, 0]},
        mode="invariant_veronese", veronese_d=2,
        tasks=["beilinson", "dsing"])
    with pytest.raises(ValidationError, match="determinant-trivial"):
        run_scenario(parse_scenario(data))


# -- execution --------------------------------------------------------------


def test_empty_tasks_gives_group_summary_only():
    report = run_scenario(parse_scenario(minimal(tasks=[])))
    assert report["tasks"] == {}
    assert report["passed"] is True
    assert report["group"]["order"] == 8
    assert report["group"]["n"] == 1


def test_task_failure_recorded_and_run_continues():
    # the full mutated grid is never strong once a cone forms, so quiver
    # fails on the cascade while molien still runs afterwards
    data = minimal(tasks=["beilinson", "cascade", "quiver", "molien"])
    report = run_scenario(parse_scenario(data))
    section = report["tasks"]["quiver"]
    assert section["ok"] is False
    assert section["error"].startswith("NotStrong")
    assert report["tasks"]["molien"]["ok"] is True
    assert report["passed"] is False


def test_empty_extraction_runs_clean():
    data = minimal(
        group={"kind": "cyclic_diagonal", "m": 2, "weights": [1, 1]},
        mode="crossed_product", veronese_d=1,
        tasks=["beilinson", "dsing", "check", "quiver", "molien"])
    report = run_scenario(parse_scenario(data))
    # d = 1 crossed-product removal empties the grid entirely
    assert report["tasks"]["dsing"]["ok"] is True
    assert report["tasks"]["dsing"]["size"] == 0
    assert report["tasks"]["check"]["ok"] is True
    assert report["tasks"]["quiver"]["components"] == []
    # molien still ran after the collection tasks
    assert report["tasks"]["molien"]["ok"] is True
    assert report["tasks"]["molien"]["dimensions"][0] == 1


def test_check_runs_on_most_refined_collection():
    report = run_scenario(SCENARIOS / "q8_d1.json")
    assert report["tasks"]["check"]["collection"] == "dsing"
    assert report["tasks"]["gram"]["collection"] == "dsing"
    assert report["tasks"]["quiver"]["collection"] == "dsing"


def test_check_falls_back_to_cascade_then_grid():
    data = minimal(tasks=["beilinson", "cascade", "check"])
    report = run_scenario(parse_scenario(data))
    assert report["tasks"]["check"]["collection"] == "cascade"
    data = minimal(tasks=["beilinson", "check"])
    report = run_scenario(parse_scenario(data))
    assert report["tasks"]["check"]["collection"] == "beilinson"


def test_twist_on_empty_collection():
    data = minimal(
        group={"kind": "cyclic_diagonal", "m": 2, "weights": [1, 1]},
        mode="crossed_product", veronese_d=1,
        tasks=["beilinson", "dsing", {"task": "twist", "k": 1}])
    report = run_scenario(parse_scenario(data))
    assert report["tasks"]["twist"]["ok"] is True
    assert report["tasks"]["twist"]["labels"] == []


def test_warnings_emitted_once_and_sorted():
    report = run_scenario(SCENARIOS / "q8_d1.json")
    codes = [w["code"] for w in report["warnings"]]
    assert codes == sorted(codes)
    assert codes.count("FreenessNotChecked") == 1
    assert codes.count("WeightConventionNote") == 1


def test_proj_dimension_flag_only_for_scalar_cubic():
    report = run_scenario(SCENARIOS / "z3_veronese_d3.json")
    codes = [w["code"] for w in report["warnings"]]
    assert "ProjDimensionFlag" in codes
    report = run_scenario(SCENARIOS / "q8_veronese_d2.json")
    codes = [w["code"] for w in report["warnings"]]
    assert "ProjDimensionFlag" not in codes


def test_report_runs_are_deterministic():
    a = emit_report_json(run_scenario(SCENARIOS / "z3_d1.json"))
    b = emit_report_json(run_scenario(SCENARIOS / "z3_d1.json"))
    assert a == b


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_fixture(name):
    report = run_scenario(SCENARIOS / f"{name}.json")
    expected = (FIXTURES / f"{name}.report.json").read_text()
    assert emit_report_json(report) == expected
    assert report["passed"] is True


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_fixture_is_json_fixed_point(name):
    text = (FIXTURES / f"{name}.report.json").read_text()
    assert emit_report_json(json.loads(text)) == text


# The child reads its peak from VmHWM, not ru_maxrss: Linux carries
# ru_maxrss across fork and exec, so a child of a large pytest process
# would report the parent's peak instead of its own.
# The report is hashed as write_report_json streams it, so a report of
# 134.7 MB (binary dihedral l = 96) is never held whole.
_PIPELINE_CHILD = """
import hashlib, json, re, sys
from eqcol.report import write_report_json
from eqcol.scenario import parse_scenario, run_scenario

class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
    def write(self, text):
        self.sha.update(text.encode())

report = run_scenario(parse_scenario(json.loads(sys.argv[1])))
digest = Digest()
write_report_json(report, digest)
with open("/proc/self/status") as status:
    hwm_kb = int(re.search(r"^VmHWM:\\s*(\\d+) kB", status.read(), re.M).group(1))
print(json.dumps({"passed": report["passed"],
                  "sha256": digest.sha.hexdigest(),
                  "peak_kb": hwm_kb}))
"""


_NINE_TASKS = ["beilinson", "cascade", "blocks", "dsing", "check", "gram", "quiver",
               {"task": "twist", "k": 1}, {"task": "molien", "max_degree": 24}]
_EIGHT_TASKS = [task for task in _NINE_TASKS if task != "quiver"]


@pytest.mark.parametrize("name, group, n_plus_1, veronese_d, tasks, passed, sha256, "
                         "maxrss_mb", [
    # Z/5 on P^4, the paper's cyclic family one dimension up: its
    # Hom-complex differentials reach 4900 x 4901 with about 5,000
    # nonzeros, which a dense elimination held as 660 MB of zeros.
    ("z5p4", {"kind": "cyclic_diagonal", "m": 5, "weights": [1] * 5}, 5, 1,
     _NINE_TASKS, True,
     "b0e6b630a7071505f0e0352d4b1c3f19afa5684392f0e36fee05a16356615d38", 150),
    # binary dihedral l = 24 (order 96, 27 irreps): the representation-ring
    # tables are built modulo a prime at conductor 48.
    ("bd24", {"kind": "binary_dihedral", "l": 24}, 2, 1, _NINE_TASKS, True,
     "36139ef514217c08b172a9cc831bade6b0c9c6f9c7389ba0dca7ae2847b48a5d", 150),
    # binary dihedral l = 48 (order 192, 51 irreps): 300 Hom-space builds,
    # each a kernel over the two generators; the report is 18.8 MB of text,
    # emitted with one chunk per list of ints.
    ("bd48", {"kind": "binary_dihedral", "l": 48}, 2, 1, _NINE_TASKS, True,
     "e16421e945a449f5365185b3e34f7c9d0caf23c766f455a5cb6158a40b157eef", 120),
    # Z/6 on P^5: about 200,000 compositions of Hom-space elements, each
    # costing the nonzero entries it meets rather than the ambient dimension.
    ("z6p5", {"kind": "cyclic_diagonal", "m": 6, "weights": [1] * 6}, 6, 1,
     _NINE_TASKS, True,
     "a930f7bc10443267df8a618ea1f810ba217734069fd16d35d1036eefe330444f", 150),
    # binary dihedral l = 96 (order 384, 99 irreps): the irrep tables are
    # flat integer coordinates at conductor 192, and the 134.7 MB report
    # is streamed.
    ("bd96", {"kind": "binary_dihedral", "l": 96}, 2, 1, _NINE_TASKS, True,
     "a4400db43722cfe9253737c40a854ca0e2132098bb465ee9815d7fba15dc9faf", 100),
    # Z/8 and Z/16 acting on C^4 by four distinct primitive roots of unity,
    # a non-scalar action: unlike the scalar inputs above, their pipelines
    # read Ext tables off the ranks of 116 and 148 Hom-complex differentials.
    ("z8w1357", {"kind": "cyclic_diagonal", "m": 8, "weights": [1, 3, 5, 7]}, 4,
     1, _NINE_TASKS, True,
     "0cc0f60e788ae8599c86f470b7f8fca5161fe87817d5d81753666582cf76232a", 100),
    ("z16w17915", {"kind": "cyclic_diagonal", "m": 16, "weights": [1, 7, 9, 15]},
     4, 1, _NINE_TASKS, True,
     "bf9daf1a2d4a9433f426b9e91688ec770b195c08e554a19d04ae137f0e37530b", 100),
    # Z/2 acting by -1 on C^4 with d = 2: the collection is exceptional but
    # not strong, since the quiver finds Ext {-1: 6} from the cone
    # {O(1)@rho_1->O(2)@rho_0^4} to O(3)@rho_1; a shift by [1] would make
    # that pair strong, and the report pins the failure until then.
    ("z2c4d2", {"kind": "cyclic_diagonal", "m": 2, "weights": [1] * 4}, 4,
     2, _NINE_TASKS, False,
     "2c2d514c45e508bf8f26c5b1a88a0df9cee5505228e915b67b5ae9b567b89498", 100),
    # Z/8 on P^7 without the quiver: its degree-7 Hom spaces have 3,432
    # monomials, all invariant, and their basis is built from the sparse
    # echelon rows; dense rows of the ambient width took 214.5 MB.
    ("z8p7", {"kind": "cyclic_diagonal", "m": 8, "weights": [1] * 8}, 8, 1,
     _EIGHT_TASKS, True,
     "702183805baa12cb3bead8aeb343c225b4d590ea2253eba048ea1a91aeef4ed5", 100),
], ids=["z5p4", "bd24", "bd48", "z6p5", "bd96", "z8w1357", "z16w17915", "z2c4d2",
        "z8p7"])
def test_z5_on_p4_pipeline_pinned_in_bounded_memory(name, group, n_plus_1,
                                                    veronese_d, tasks, passed,
                                                    sha256, maxrss_mb):
    # A fresh interpreter keeps the peak RSS of this run alone; it inherits
    # the -O flag.
    data = {"name": name, "group": group,
            "n_plus_1": n_plus_1, "mode": "invariant_veronese",
            "veronese_d": veronese_d, "tasks": tasks}
    env = dict(os.environ, PYTHONPATH=str(Path(eqcol.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", _PIPELINE_CHILD,
         json.dumps(data)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["passed"] is passed
    assert result["sha256"] == sha256
    assert result["peak_kb"] < maxrss_mb * 1024
