"""Scenario files and pipeline orchestration.

A scenario is a JSON document naming a group, the ambient dimension, a
Veronese parameter with an extraction mode, and a set of tasks.  Tasks are
executed in dependency order regardless of their order in the file:

    beilinson -> cascade -> blocks -> dsing -> check -> gram -> quiver
    -> twist -> molien

check, gram, quiver and twist operate on the most refined collection the
pipeline has produced (dsing if present, else cascade, else the grid).
Task failures are recorded in their report section and the run continues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .cyclotomic import parse_cyc
from .errors import (EqcolError, InvalidParameter, ParseError, ScenarioError,
                     ValidationError)
from .excol import (beilinson_collection, cascade_mutation, check_exceptional,
                    check_strong, dsing_collection, is_unitriangular, quiver,
                    replay_gram, tensor_twist, veronese_blocks)
from .groups import generate_group
from .linalg import CycMatrix
from .report import emit_dot
from .reps import (Setup, binary_dihedral, cyclic_diagonal, irrep_from_images,
                   molien_dimension)

TASK_ORDER = ("beilinson", "cascade", "blocks", "dsing", "check", "gram",
              "quiver", "twist", "molien")
VERONESE_TASKS = ("blocks", "dsing")
MODES = ("crossed_product", "invariant_veronese", "beilinson_only")
DEFAULT_MOLIEN_DEGREE = 24


@dataclass(frozen=True)
class Scenario:
    name: str
    group: dict
    n_plus_1: int
    veronese_d: int | None
    mode: str
    tasks: tuple[dict, ...]
    output: dict


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path.name}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_scenario(data, default_name=path.stem)


def parse_scenario(data, default_name: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a JSON object")
    known = {"name", "group", "n_plus_1", "veronese_d", "mode", "tasks",
             "output"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValidationError(f"unknown scenario fields: {', '.join(unknown)}")

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ValidationError("name must be a nonempty string")

    group = data.get("group")
    if not isinstance(group, dict) or "kind" not in group:
        raise ValidationError("group must be an object with a 'kind'")

    n_plus_1 = data.get("n_plus_1")
    if not isinstance(n_plus_1, int) or n_plus_1 < 1:
        raise ValidationError("n_plus_1 must be a positive integer")

    mode = data.get("mode", "beilinson_only")
    if mode not in MODES:
        raise ValidationError(
            f"mode must be one of {', '.join(MODES)}; got {mode!r}")

    veronese_d = data.get("veronese_d")
    if veronese_d is not None and (not isinstance(veronese_d, int)
                                   or veronese_d < 1):
        raise ValidationError("veronese_d must be a positive integer")

    tasks = _parse_tasks(data.get("tasks", []))

    requested = {t["task"] for t in tasks}
    if requested & set(VERONESE_TASKS):
        if veronese_d is None:
            raise ValidationError(
                "a Veronese task is requested but veronese_d is missing")
        if n_plus_1 % veronese_d:
            raise ValidationError(
                f"veronese_d={veronese_d} must divide n_plus_1={n_plus_1}"
                " when a Veronese task is requested")
    if "dsing" in requested and mode == "beilinson_only":
        raise ValidationError("dsing task requires an extraction mode")

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ValidationError("output must be an object")
    bad = sorted(set(output) - {"dot"})
    if bad:
        raise ValidationError(f"unknown output options: {', '.join(bad)}")

    return Scenario(name, group, n_plus_1, veronese_d, mode,
                    tuple(tasks), dict(output))


def _parse_tasks(raw) -> list[dict]:
    if not isinstance(raw, list):
        raise ValidationError("tasks must be a list")
    tasks = []
    seen = set()
    for item in raw:
        if isinstance(item, str):
            entry = {"task": item}
        elif isinstance(item, dict) and "task" in item:
            entry = dict(item)
        else:
            raise ValidationError(
                "each task must be a name or an object with a 'task' field")
        kind = entry["task"]
        if kind not in TASK_ORDER:
            raise ValidationError(f"unknown task {kind!r}")
        if kind in seen:
            raise ValidationError(f"duplicate task {kind!r}")
        seen.add(kind)
        extra = set(entry) - {"task"}
        if kind == "molien":
            if not extra <= {"max_degree"}:
                raise ValidationError("molien accepts only max_degree")
            degree = entry.get("max_degree", DEFAULT_MOLIEN_DEGREE)
            if not isinstance(degree, int) or degree < 0:
                raise ValidationError("molien max_degree must be >= 0")
            entry["max_degree"] = degree
        elif kind == "twist":
            if extra != {"k"} or not isinstance(entry.get("k"), int):
                raise ValidationError("twist task requires an integer k")
        elif extra:
            raise ValidationError(
                f"task {kind!r} accepts no options: {sorted(extra)}")
        tasks.append(entry)
    tasks.sort(key=lambda t: TASK_ORDER.index(t["task"]))
    return tasks


# -- group construction ---------------------------------------------------


def build_setup(scenario: Scenario) -> Setup:
    data = scenario.group
    kind = data["kind"]
    try:
        if kind == "cyclic_diagonal":
            setup = _build_cyclic(data)
        elif kind == "binary_dihedral":
            setup = _build_binary_dihedral(data)
        elif kind == "explicit":
            setup = _build_explicit(data, scenario.n_plus_1)
        else:
            raise ValidationError(f"unknown group kind {kind!r}")
    except EqcolError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ValidationError(f"group construction failed: {exc}") from exc
    if setup.n_plus_1 != scenario.n_plus_1:
        raise ValidationError(
            f"n_plus_1={scenario.n_plus_1} does not match the matrix size"
            f" {setup.n_plus_1}")
    return setup


def _require(data: dict, keys: set[str]) -> None:
    missing = sorted(keys - set(data))
    if missing:
        raise ValidationError(f"group is missing fields: {', '.join(missing)}")
    unknown = sorted(set(data) - keys - {"kind"})
    if unknown:
        raise ValidationError(f"unknown group fields: {', '.join(unknown)}")


def _build_cyclic(data: dict) -> Setup:
    _require(data, {"m", "weights"})
    m, weights = data["m"], data["weights"]
    if not isinstance(m, int) or not isinstance(weights, list) \
            or not all(isinstance(w, int) for w in weights):
        raise ValidationError("cyclic_diagonal needs integer m and weights")
    return cyclic_diagonal(m, weights)


def _build_binary_dihedral(data: dict) -> Setup:
    _require(data, {"l"})
    if not isinstance(data["l"], int):
        raise ValidationError("binary_dihedral needs an integer l")
    return binary_dihedral(data["l"])


def _build_explicit(data: dict, n_plus_1: int) -> Setup:
    _require(data, {"generators", "irreps", "conductor"})
    conductor = data.get("conductor")
    generators = [_parse_matrix(mat, conductor) for mat in data["generators"]]
    for g in generators:
        if g.nrows != n_plus_1:
            raise ValidationError(
                f"generator is {g.nrows}x{g.ncols}, expected {n_plus_1}")
    group = generate_group(generators, dimension=n_plus_1)
    irrep_entries = data["irreps"]
    if not isinstance(irrep_entries, list) or not irrep_entries:
        raise ValidationError("explicit group needs a nonempty irrep list")
    irreps = []
    for idx, entry in enumerate(irrep_entries):
        if not isinstance(entry, dict) or "images" not in entry:
            raise ValidationError("each irrep needs an 'images' list")
        images = [_parse_matrix(mat, conductor) for mat in entry["images"]]
        name = entry.get("name", f"rho_{idx}")
        try:
            irreps.append(irrep_from_images(group, idx, name, images))
        except EqcolError as exc:
            raise ValidationError(f"irrep {name} rejected: {exc}") from exc
    try:
        return Setup(group, irreps)
    except InvalidParameter as exc:
        raise ValidationError(str(exc)) from exc


def _parse_matrix(rows, conductor) -> CycMatrix:
    if not isinstance(rows, list) or not rows \
            or not all(isinstance(r, list) for r in rows):
        raise ValidationError("matrix must be a list of rows")
    parsed = []
    for row in rows:
        out = []
        for cell in row:
            if not isinstance(cell, str):
                raise ValidationError(
                    "matrix entries must be cyclotomic literals")
            try:
                value = parse_cyc(cell)
            except EqcolError as exc:
                raise ValidationError(f"bad entry {cell!r}: {exc}") from exc
            if conductor is not None and conductor % value.reduced().conductor:
                raise ValidationError(
                    f"entry {cell!r} needs conductor"
                    f" {value.reduced().conductor}, outside {conductor}")
            out.append(value)
        parsed.append(out)
    return CycMatrix(parsed)


# -- execution -------------------------------------------------------------


def run_scenario(scenario, ensure: tuple[str, ...] = ()) -> dict:
    """Execute a scenario (path or parsed) and return the report dict.

    ensure adds tasks (with default options) that the file did not request;
    the CLI quiver/gram subcommands use it.
    """
    if isinstance(scenario, (str, Path)):
        scenario = load_scenario(scenario)
    tasks = list(scenario.tasks)
    present = {t["task"] for t in tasks}
    for extra in ensure:
        if extra not in present:
            tasks.append({"task": extra})
    tasks.sort(key=lambda t: TASK_ORDER.index(t["task"]))

    setup = build_setup(scenario)
    if scenario.mode == "invariant_veronese" and not setup.det_trivial():
        raise ValidationError(
            "mode invariant_veronese requires a determinant-trivial"
            " action (group-in-SL check failed)")

    report = {
        "scenario": {
            "name": scenario.name,
            "mode": scenario.mode,
            "n_plus_1": scenario.n_plus_1,
            "veronese_d": scenario.veronese_d,
        },
        "group": _group_summary(setup),
        "tasks": {},
        "warnings": [],
    }

    warnings: dict[str, str] = {}
    state = {"setup": setup, "scenario": scenario, "warnings": warnings,
             "collection": None, "collection_source": None,
             "veronese_ran": False}

    runners = {
        "beilinson": _task_beilinson,
        "cascade": _task_cascade,
        "blocks": _task_blocks,
        "dsing": _task_dsing,
        "check": _task_check,
        "gram": _task_gram,
        "quiver": _task_quiver,
        "twist": _task_twist,
        "molien": _task_molien,
    }
    for entry in tasks:
        kind = entry["task"]
        try:
            section = runners[kind](state, entry)
            section.setdefault("ok", True)
        except EqcolError as exc:
            section = {"ok": False,
                       "error": f"{type(exc).__name__}: {exc}"}
        report["tasks"][kind] = section

    _flag_proj_dimension(state)
    report["warnings"] = [{"code": code, "message": warnings[code]}
                          for code in sorted(warnings)]
    report["passed"] = all(section.get("ok", False)
                           for section in report["tasks"].values())
    return report


def _group_summary(setup: Setup) -> dict:
    group = setup.group
    return {
        "order": group.order,
        "n": setup.n,
        "scalar": group.is_scalar(),
        "class_sizes": [len(c) for c in group.classes],
        "irreps": [{"name": r.name, "dim": r.dim} for r in setup.irreps],
    }


def _grid(state) -> object:
    if state.get("grid") is None:
        state["grid"] = beilinson_collection(state["setup"])
        if state["collection"] is None:
            state["collection"] = state["grid"]
            state["collection_source"] = "beilinson"
    return state["grid"]


def _op_counts(coll) -> dict:
    counts = {"transpose": 0, "right_mutation": 0, "kclass_fallback": 0,
              "helix_rotate": 0, "block_sort": 0}
    for entry in coll.provenance:
        if entry.get("op") in counts:
            counts[entry["op"]] += 1
    return counts


def _task_beilinson(state, entry) -> dict:
    coll = _grid(state)
    return {"labels": list(coll.labels), "size": len(coll)}


def _task_cascade(state, entry) -> dict:
    coll = cascade_mutation(_grid(state))
    if state["collection_source"] in (None, "beilinson"):
        state["collection"] = coll
        state["collection_source"] = "cascade"
    return {"labels": list(coll.labels),
            "op_counts": _op_counts(coll),
            "has_stubs": coll.has_stub(),
            "provenance": [dict(e) for e in coll.provenance]}


def _note_weight_convention(state) -> None:
    state["warnings"].setdefault(
        "WeightConventionNote",
        "block weights are computed as (c_j - i) mod e for O(i) tensor"
        " rho_j, where rho_j sends the chosen generator of the scalar"
        " subgroup to its c_j-th power; the twist enters with negative sign")
    state["veronese_ran"] = True


def _task_blocks(state, entry) -> dict:
    scenario = state["scenario"]
    blocks = veronese_blocks(_grid(state), scenario.veronese_d)
    _note_weight_convention(state)
    coll = blocks.collection
    return {
        "d": blocks.d,
        "e": blocks.e,
        "weights": list(blocks.weights),
        "blocks": [list(b) for b in blocks.blocks],
        "pullback_weight": blocks.pullback_weight,
        "block_labels": [[coll.labels[i] for i in b] for b in blocks.blocks],
    }


def _task_dsing(state, entry) -> dict:
    scenario = state["scenario"]
    coll = dsing_collection(state["setup"], scenario.veronese_d, scenario.mode)
    if scenario.mode == "invariant_veronese":
        _note_weight_convention(state)
    for w in coll.warnings():
        state["warnings"].setdefault(w["code"], w["message"])
    state["collection"] = coll
    state["collection_source"] = "dsing"
    return {"mode": scenario.mode,
            "d": scenario.veronese_d,
            "labels": list(coll.labels),
            "size": len(coll),
            "op_counts": _op_counts(coll),
            "provenance": [dict(e) for e in coll.provenance]}


def _current(state):
    if state["collection"] is None:
        _grid(state)
    return state["collection"], state["collection_source"]


def _report_check(report_obj) -> dict:
    return {"passed": report_obj.passed, "violation": report_obj.violation}


def _task_check(state, entry) -> dict:
    coll, source = _current(state)
    exceptional = check_exceptional(coll)
    strong = check_strong(coll)
    return {"collection": source,
            "exceptional": _report_check(exceptional),
            "strong": _report_check(strong),
            "ok": exceptional.passed and strong.passed}


def _task_gram(state, entry) -> dict:
    coll, source = _current(state)
    gram = coll.gram_matrix()
    unitriangular = is_unitriangular(gram)
    replay_ok = replay_gram(coll.provenance) == gram
    return {"collection": source,
            "matrix": [list(row) for row in gram],
            "unitriangular": unitriangular,
            "replay_consistent": replay_ok,
            "ok": unitriangular and replay_ok}


def _task_quiver(state, entry) -> dict:
    coll, source = _current(state)
    q = quiver(coll)
    section = {"collection": source,
               "labels": list(q.labels),
               "hom_dims": [list(row) for row in q.hom_dims],
               "arrows": [list(row) for row in q.arrows],
               "components": [list(c) for c in q.components]}
    scenario = state["scenario"]
    if scenario.output.get("dot", True):
        section["dot"] = emit_dot(q.labels, q.arrows)
    return section


def _task_twist(state, entry) -> dict:
    coll, source = _current(state)
    twisted = tensor_twist(coll, entry["k"])
    return {"collection": source,
            "k": entry["k"],
            "labels": list(twisted.labels),
            "gram_invariant": twisted.gram_matrix() == coll.gram_matrix()}


def _task_molien(state, entry) -> dict:
    setup = state["setup"]
    degree = entry.get("max_degree", DEFAULT_MOLIEN_DEGREE)
    dims = [molien_dimension(setup, m) for m in range(degree + 1)]
    return {"max_degree": degree, "dimensions": dims}


def _flag_proj_dimension(state) -> None:
    scenario = state["scenario"]
    setup = state["setup"]
    if (state["veronese_ran"] and scenario.veronese_d == 3
            and setup.n_plus_1 == 3 and setup.group.order == 3
            and setup.group.is_scalar()):
        state["warnings"].setdefault(
            "ProjDimensionFlag",
            "the group acts by scalars, hence trivially on projective"
            " space, so Proj of the degree-3 invariant Veronese subring is"
            " the projective plane (n = 2); describing it as a"
            " three-dimensional projective space is inconsistent with"
            " n + 1 = 3, d = 3")
