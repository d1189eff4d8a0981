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


def test_run_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIOS / "z3_crossed_d3.json"),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["scenario"]["name"] == "z3_crossed_d3"


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
