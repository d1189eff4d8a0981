"""Command-line interface: exit codes, file emission, text formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqcol
from eqcol.cli import main
from eqcol.report import emit_dot, gram_text, molien_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_run_exit_zero_and_stdout(capsys):
    code = main(["run", str(SCENARIOS / "q8_veronese_d2.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_run_exit_one_on_failed_check(tmp_path, capsys):
    scenario = {
        "name": "failing",
        "group": {"kind": "binary_dihedral", "l": 2},
        "n_plus_1": 2,
        "tasks": ["beilinson", "cascade", "quiver"],
    }
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["tasks"]["quiver"]["ok"] is False


@pytest.mark.parametrize("k", [5000, -5000])
def test_run_twists_far_outside_the_window(tmp_path, capsys, k):
    # the twists between the window and k are reduced in order and kept,
    # so a far twist does not recurse once per twist
    scenario = {
        "name": "far_twist",
        "group": {"kind": "cyclic_diagonal", "m": 3, "weights": [1, 1, 1]},
        "n_plus_1": 3,
        "tasks": ["beilinson", {"task": "twist", "k": k}],
    }
    path = tmp_path / "far_twist.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", str(path)])
    assert code == 0
    twist = json.loads(capsys.readouterr().out)["tasks"]["twist"]
    assert twist["k"] == k and twist["gram_invariant"] is True


def test_run_exit_two_on_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code = main(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_run_exit_two_on_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_run_exit_two_on_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "group": {"kind": "binary_dihedral", '
                    '"l": 2}, "n_plus_1": 2, "tasks": ["frobnicate"]}')
    code = main(["run", str(path)])
    assert code == 2
    assert "unknown task" in capsys.readouterr().err


def test_run_exit_two_on_zero_denominator(tmp_path, capsys):
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    data["group"]["generators"][1][0][1] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    code = main(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad entry '1/0'" in err and "zero denominator" in err


@pytest.mark.parametrize("path, value", [
    (("group", "generators"), 5),
    (("group", "irreps", 1, "images"), 5),
    (("group", "irreps", 1, "name"), 5),
    (("output", "dot"), "no"),
], ids=["generators_int", "images_int", "name_int", "dot_string"])
def test_run_exit_two_on_explicit_field_of_the_wrong_type(path, value, tmp_path,
                                                           capsys):
    data = json.loads((SCENARIOS / "q8_explicit.json").read_text())
    *keys, last = path
    node = data
    for key in keys:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["run", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and captured.err


def test_run_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIOS / "z3_crossed_d3.json"),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["scenario"]["name"] == "z3_crossed_d3"
    assert out.read_text() == (FIXTURES / "z3_crossed_d3.report.json").read_text()


def test_run_exit_two_on_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["run", str(SCENARIOS / "z3_crossed_d3.json"),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("command", ["run", "quiver", "gram"])
def test_exit_two_when_memory_runs_out(command, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("eqcol.cli.run_scenario", exhausted)
    code = main([command, str(SCENARIOS / "q8_veronese_d2.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_run_exit_two_on_dot_under_a_file(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", str(SCENARIOS / "q8_veronese_d2.json"),
                 "--out", str(tmp_path / "r.json"),
                 "--dot", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write q8_veronese_d2.dot into ")
    assert "Traceback" not in err


def test_run_exit_two_on_a_name_outside_the_dot_directory(tmp_path, capsys):
    data = json.loads((SCENARIOS / "z3_d1.json").read_text())
    data["name"] = "../escaped"
    scenario = tmp_path / "escaped.json"
    scenario.write_text(json.dumps(data))
    dot_dir = tmp_path / "dots"
    dot_dir.mkdir()
    code = main(["run", str(scenario), "--out", str(tmp_path / "r.json"),
                 "--dot", str(dot_dir)])
    assert code == 2
    assert "plain file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dots", "escaped.json"]


def test_run_dot_directory(tmp_path, capsys):
    dot_dir = tmp_path / "dots"
    code = main(["run", str(SCENARIOS / "q8_veronese_d2.json"),
                 "--out", str(tmp_path / "r.json"), "--dot", str(dot_dir)])
    assert code == 0
    dot = (dot_dir / "q8_veronese_d2.dot").read_text()
    assert dot.startswith("digraph quiver {")
    assert dot.endswith("}\n")
    assert dot.count("->") == 3


def test_molien_table(capsys):
    code = main(["molien", str(SCENARIOS / "q8_d1.json"),
                 "--max-degree", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "degree invariants",
        "0 1", "1 0", "2 0", "3 0", "4 2", "5 0", "6 1"]


def test_molien_rejects_negative_degree(capsys):
    code = main(["molien", str(SCENARIOS / "q8_d1.json"),
                 "--max-degree", "-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: molien max_degree must be >= 0\n"


def test_molien_uses_scenario_degree(capsys):
    code = main(["molien", str(SCENARIOS / "q8_explicit.json")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "12 4"


def test_quiver_emits_dot(capsys):
    code = main(["quiver", str(SCENARIOS / "z3_veronese_d3.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("n0 -> n1;") == 3
    assert 'n0 [label="O(1)@rho_1"];' in out


def test_quiver_added_when_not_requested(capsys):
    code = main(["quiver", str(SCENARIOS / "q8_explicit.json")])
    assert code == 0
    out = capsys.readouterr().out
    # the Beilinson grid quiver for the quaternion group has 8 arrows
    assert out.count("->") == 8


def test_quiver_exit_one_when_not_strong(tmp_path, capsys):
    scenario = {
        "name": "cascade_only",
        "group": {"kind": "binary_dihedral", "l": 2},
        "n_plus_1": 2,
        "tasks": ["beilinson", "cascade"],
    }
    path = tmp_path / "cascade_only.json"
    path.write_text(json.dumps(scenario))
    code = main(["quiver", str(path)])
    assert code == 1
    assert "NotStrong" in capsys.readouterr().err


def test_gram_text(capsys):
    code = main(["gram", str(SCENARIOS / "z3_veronese_d3.json")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "O(1)@rho_1 O(2)@rho_2"
    assert lines[1:] == ["1 3", "0 1"]


def test_dot_escapes_quotes():
    dot = emit_dot(('say "hi"',), ((0,),))
    assert 'label="say \\"hi\\""' in dot
    # a backslash is escaped before the quotes, so a trailing one cannot
    # escape the closing quote
    dot = emit_dot(("O@a\\", 'b\\"c'), ((0, 0), (0, 0)))
    assert 'n0 [label="O@a\\\\"];' in dot
    assert 'n1 [label="b\\\\\\"c"];' in dot


def test_dot_empty_quiver():
    assert emit_dot((), ()) == "digraph quiver {\n  rankdir=LR;\n}\n"


def test_text_helpers():
    assert molien_text([1, 0, 2]) == "degree invariants\n0 1\n1 0\n2 2\n"
    assert gram_text(["A", "B"], [[1, 5], [0, 1]]) == "A B\n1 5\n0 1\n"


def test_console_script_subprocess(tmp_path):
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(Path(eqcol.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "eqcol.cli", "run",
         str(SCENARIOS / "q8_crossed_veronese_d2.json"), "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("name, value", [
    ("EQCOL_ORDER_CAP", "abc"),
    ("EQCOL_ORDER_CAP", "0"),
    ("EQCOL_CONDUCTOR_CAP", "-3"),
    ("EQCOL_HOM_COMPLEX_CAP", "1.5"),
])
def test_malformed_cap_exits_two(name, value):
    env = dict(os.environ, PYTHONPATH=str(Path(eqcol.__file__).resolve().parents[1]))
    env[name] = value
    proc = subprocess.run(
        [sys.executable, "-m", "eqcol.cli", "run",
         str(SCENARIOS / "q8_d1.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {name} must be a positive integer")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_hom_complex_cap_exits_two():
    env = dict(os.environ, PYTHONPATH=str(Path(eqcol.__file__).resolve().parents[1]))
    env["EQCOL_HOM_COMPLEX_CAP"] = "2"
    proc = subprocess.run(
        [sys.executable, "-m", "eqcol.cli", "run",
         str(SCENARIOS / "z3_d1.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: Hom complex O@rho_2 -> O(1)@rho_0 has dimension 3 in degree 0,"
        " above the cap EQCOL_HOM_COMPLEX_CAP=2\n")
    assert proc.stdout == ""
