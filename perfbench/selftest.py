"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, exiting 1 on the first failure:
1. every hook is installed, and fires at least once on some workload;
   a hook whose target is gone is reported as absent, not fatal;
2. on every workload the traced report bytes equal the untraced ones, and
   both are exact;
3. no count moves with the seed (two seeds of the shipped sweep);
4. BENCHMARK.json names exactly the metrics run.py reports;
5. in a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracer import HOOK_NAMES, PER_LAYER, Hook, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_hooks_and_tracing() -> None:
    fired = dict.fromkeys(HOOK_NAMES, 0)
    for workload in workloads.WORKLOADS:
        plain = run.run_sample(workload, 1, trace=False, spans=None)
        traced = run.run_sample(workload, 1, trace=True, spans=None)
        if traced["missing_hooks"]:
            fail(f"hooks without a target: {traced['missing_hooks']}")
        for sample in (plain, traced):
            errors = [r["error"] for r in sample["runs"] if r["error"]]
            if errors:
                fail(f"{workload}: {errors}")
        if ([r["sha256"] for r in plain["runs"]]
                != [r["sha256"] for r in traced["runs"]]):
            fail(f"{workload}: traced reports differ from untraced ones")
        for name, calls in traced["hook_calls"].items():
            fired[name] += calls
        print(f"ok  {workload}: traced reports byte-identical, exact")
    silent = [name for name, calls in fired.items() if not calls]
    if silent:
        fail(f"hooks that never fire on any workload: {silent}")
    print(f"ok  all {len(fired)} hooks fire")


def check_absent_hook() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    gone = (Hook("linalg.rank", "eqcol.linalg", "CycMatrix.renamed_rank"),
            Hook("linalg.rref_rows", "eqcol.linalg", "deleted_rref_rows"),
            Hook("linalg.det", "eqcol.no_such_module", "det"))
    tracer = Tracer(hooks=gone)
    tracer.install()
    values = tracer.values(mutation_steps=0)
    if len(tracer.missing) != len(gone) or any(
            name.startswith("linalg.") for name in values):
        fail(f"absent hooks not reported as absent: {tracer.missing}")
    print("ok  hooks without a target are reported absent")


def check_seed_invariance() -> None:
    first, second = (run.run_sample("shipped_sweep", seed, trace=True,
                                    spans=None) for seed in (1, 2))
    if [r["name"] for r in first["runs"]] == [r["name"] for r in second["runs"]]:
        fail("seeds 1 and 2 give the same scenario order")
    moved = [name for name in PER_LAYER
             if run.layer_unit(name) == "count"
             and first["layers"][name] != second["layers"][name]]
    if moved:
        fail(f"counts that move with the seed (a bug): {moved}")
    print("ok  no count moves with the seed")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != run.END_TO_END_UNITS:
        fail(f"end_to_end {end_to_end} != {run.END_TO_END_UNITS}")
    per_layer = [m["name"] for m in spec["per_layer"]]
    if per_layer != list(PER_LAYER) + list(run.TRACE_METRICS):
        fail("per_layer in BENCHMARK.json differs from the reported metrics")
    for m in spec["per_layer"]:
        if m["unit"] != run.layer_unit(m["name"]):
            fail(f"unit of {m['name']} should be {run.layer_unit(m['name'])}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    print("ok  BENCHMARK.json matches the reported metrics")


def check_refuses_without_repository() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "shipped_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py did not refuse a directory without the repository")
    print(f"ok  bare directory refused (exit {proc.returncode})")


def main() -> int:
    check_benchmark_json()
    check_refuses_without_repository()
    check_absent_hook()
    check_hooks_and_tracing()
    check_seed_invariance()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
