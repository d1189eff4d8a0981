"""The benchmark's workloads and the exactness gate behind `fail_frac`.

Every workload is a list of scenarios driven through the public API
(`parse_scenario` -> `run_scenario` -> `emit_report_json`).  Each report is
checked twice: byte for byte against a pinned reference, and against
structural facts that do not depend on the pinned bytes.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIO_DIR = ROOT / "scenarios"
FIXTURE_DIR = ROOT / "tests" / "fixtures"
REFERENCE_DIR = BENCH_DIR / "reference"

PIPELINE_TASKS = [
    "beilinson", "cascade", "blocks", "dsing", "check", "gram", "quiver",
    {"task": "twist", "k": 1},
    {"task": "molien", "max_degree": 24},
]


@dataclass(frozen=True)
class Expect:
    """Structural facts about a pipeline report, independent of its bytes."""

    grid: int
    dsing: int
    components: int


@dataclass(frozen=True)
class Case:
    """One scenario of a workload with the reference its report must equal."""

    name: str
    data: dict
    reference: Path
    expect: Expect | None = None


def _pipeline(name: str, group: dict, n_plus_1: int, expect: Expect) -> Case:
    data = {"name": name, "group": group, "n_plus_1": n_plus_1,
            "mode": "invariant_veronese", "veronese_d": 1,
            "tasks": PIPELINE_TASKS}
    return Case(name, data, REFERENCE_DIR / f"{name}.report.json.gz", expect)


def _shipped() -> list[Case]:
    cases = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        data.setdefault("name", path.stem)
        cases.append(Case(path.stem, data,
                          FIXTURE_DIR / f"{path.stem}.report.json"))
    return cases


def pipeline_cases() -> dict[str, Case]:
    return {
        "bd12_pipeline": _pipeline(
            "bd12_pipeline", {"kind": "binary_dihedral", "l": 12}, 2,
            Expect(grid=30, dsing=28, components=2)),
        "z4p3_cascade": _pipeline(
            "z4p3_cascade",
            {"kind": "cyclic_diagonal", "m": 4, "weights": [1, 1, 1, 1]}, 4,
            Expect(grid=16, dsing=12, components=4)),
    }


WORKLOADS = ("bd12_pipeline", "z4p3_cascade", "shipped_sweep")


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's scenarios in run order.

    The inputs are fixed exact computations, so the seed only permutes the
    order of the shipped sweep; the two pipeline workloads ignore it.
    """
    if workload == "shipped_sweep":
        out = _shipped()
        random.Random(seed).shuffle(out)
        return out
    return [pipeline_cases()[workload]]


def reference_sha256(case: Case) -> str:
    """SHA-256 of the bytes the case's report must equal.

    A pinned report's hash comes from MANIFEST.json, so a sample never
    holds the reference itself; `verify_references` checks the pinned files
    against the manifest.
    """
    if case.reference.suffix != ".gz":
        return sha256(case.reference.read_bytes())
    manifest = json.loads((REFERENCE_DIR / "MANIFEST.json").read_text())
    return manifest["reports"][case.reference.name]["sha256"]


def verify_references() -> None:
    for case in pipeline_cases().values():
        data = gzip.decompress(case.reference.read_bytes())
        if sha256(data) != reference_sha256(case):
            raise ValueError(f"{case.reference.name} does not match the"
                             " sha256 in MANIFEST.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(case: Case, report: dict, digest: str,
                 reference: str) -> str | None:
    """None when the report is exact, else the first reason it is not.

    digest is the SHA-256 of the emitted report, reference that of the
    bytes it must equal.
    """
    if not report.get("passed"):
        return "report says passed: false"
    reason = _check_structure(case.expect, report)
    if reason is None and digest != reference:
        reason = (f"report bytes differ from {case.reference.name}"
                  f" (sha256 {digest[:12]} != {reference[:12]})")
    return reason


def _check_structure(expect: Expect | None, report: dict) -> str | None:
    if expect is None:
        return None
    tasks = report["tasks"]
    n_plus_1 = report["scenario"]["n_plus_1"]
    r_plus_1 = len(report["group"]["irreps"])
    grid = tasks["beilinson"]["size"]
    if grid != n_plus_1 * r_plus_1 or grid != expect.grid:
        return f"grid size {grid}, expected (n+1)(r+1) = {expect.grid}"
    dsing = tasks["dsing"]["size"]
    if dsing != n_plus_1 * (r_plus_1 - 1) or dsing != expect.dsing:
        return f"dsing size {dsing}, expected (n+1)r = {expect.dsing}"
    components = len(tasks["quiver"]["components"])
    if components != expect.components:
        return f"{components} quiver components, expected {expect.components}"
    gram = tasks["gram"]
    if not (gram["unitriangular"] and gram["replay_consistent"]):
        return "Gram matrix is not unitriangular or does not replay"
    return None


def mutation_steps(report: dict) -> int:
    """Sum of the op_counts of every section that records them."""
    return sum(sum(section["op_counts"].values())
               for section in report["tasks"].values()
               if "op_counts" in section)
