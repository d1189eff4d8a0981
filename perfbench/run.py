"""eqcol benchmark: time to an exact report, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs the three workloads in turn, each printed as below.

Runs samples of the workload one after another, each in a fresh
interpreter (`sample.py`), until S seconds have passed and at least
MIN_SAMPLES samples were taken.  Prints a readable summary, writes a run
record to perfbench/out/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
alternates untraced and traced samples and reports the per-layer metrics,
the tracing overhead, and fails the run if a traced report differs from
the untraced one.  Exits 2 without a result when the repository is not
there to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import runinfo
import workloads
from tracer import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_SAMPLES = 3
# a sample takes under 4 s; a run whose samples all time out still ends
# within 180 s (at most four samples start before the deadline check)
SAMPLE_TIMEOUT_S = 40

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "exact_frac": "ratio"}
# per-layer metrics of the traced run beyond the tracer's PER_LAYER
TRACE_METRICS = ("trace.overhead_s", "trace.overhead_share")


class SampleFailed(Exception):
    pass


def run_sample(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "sample.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"sample exceeded {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SampleFailed(f"sample exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SampleFailed(f"sample printed no result: {proc.stdout[-500:]}") \
            from None


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p50..p99 that has at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if math.floor(n * (100 - p) / 100) >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def check_repository() -> str | None:
    """Why the benchmark cannot run here, or None."""
    for path in (ROOT / "src" / "eqcol" / "__init__.py",
                 workloads.SCENARIO_DIR, workloads.FIXTURE_DIR,
                 workloads.REFERENCE_DIR / "MANIFEST.json"):
        if not path.exists():
            return f"{path.relative_to(ROOT)} is missing"
    try:
        workloads.verify_references()
    except (OSError, ValueError, KeyError) as exc:
        return f"pinned references are unusable: {exc}"
    return None


def measure(workload: str, args) -> dict:
    """Take the samples and return the run record."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": runinfo.record(),
              "untraced": [], "traced": [], "errors": []}
    deadline = time.monotonic() + args.seconds
    while True:
        for key, traced in (("untraced", False), ("traced", True)):
            if traced and not args.trace:
                continue
            try:
                record[key].append(run_sample(workload, args.seed, traced,
                                              spans))
            except SampleFailed as exc:
                record["errors"].append(str(exc))
        taken = len(record["untraced"]) + len(record["errors"])
        if time.monotonic() >= deadline and taken >= MIN_SAMPLES:
            return record


def summarize(record: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object and the readable lines that go before it."""
    untraced, traced = record["untraced"], record["traced"]
    per_sample = len(workloads.cases(record["workload"], record["seed"]))
    runs = [run for s in untraced + traced for run in s["runs"]]
    attempted = len(runs) + per_sample * len(record["errors"])
    failed = (sum(run["error"] is not None for run in runs)
              + per_sample * len(record["errors"]))
    problems = [run["error"] for run in runs if run["error"]]
    problems += record["errors"]

    # every sample, traced or not, must produce the same bytes
    digests = {tuple(run["sha256"] for run in s["runs"])
               for s in untraced + traced}
    if len(digests) > 1:
        problems.append("reports differ between samples"
                        + (" (traced vs untraced)" if traced else ""))

    env = record["env"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}"
        f"  trace {int(trace)}  samples {len(untraced)} untraced"
        f" + {len(traced)} traced, one fresh interpreter each",
        f"env: python {env['python']}, nproc {env['nproc']}, {env['cpu']},"
        f" load {' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])},"
        f" commit {env['commit']}",
    ]
    metrics: dict[str, dict] = {}
    if untraced and not trace:
        for key in ("solve_s", "setup_s", "peak_rss_mb"):
            values = [s[key] for s in untraced]
            median = statistics.median(values)
            line = (f"{key:<12} median {median:.4f} {END_TO_END_UNITS[key]}"
                    f"  (n={len(values)})")
            tail = tail_percentile(values)
            if tail:
                line += f"  p{tail[0]} {tail[1]:.4f}"
            lines.append(line)
            metrics[key] = {"value": median, "unit": END_TO_END_UNITS[key]}
        metrics["exact_frac"] = {"value": 1 - failed / attempted,
                                 "unit": "ratio"}
    lines.append(f"fail_frac    {failed}/{attempted} = {failed / attempted:.4f}")
    if trace and untraced and traced:
        layers = {name: _median(name, [s["layers"][name] for s in traced])
                  for name in PER_LAYER if name in traced[0]["layers"]}
        base = statistics.median(s["solve_s"] for s in untraced)
        overhead = statistics.median(s["solve_s"] for s in traced) - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / base
        missing = sorted({m for s in traced for m in s["missing_hooks"]})
        if missing:
            lines.append(f"absent hooks (metrics left out): {', '.join(missing)}")
        lines.append(f"tracing overhead: {overhead:+.4f} s on a median"
                     f" untraced solve_s of {base:.4f} s")
        for name, value in layers.items():
            lines.append(f"  {name} = {value:.6g}")
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    for problem in dict.fromkeys(problems):
        lines.append(f"NOT EXACT: {problem}")
    result = {"correct": not problems and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _median(name: str, values: list[float]) -> float:
    # a count stays a whole number
    if layer_unit(name) == "count":
        return statistics.median_low(values)
    return statistics.median(values)


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reason = check_repository()
    if reason is not None:
        print(f"run.py: cannot benchmark: {reason}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = measure(name, args)
        result, lines = summarize(record, bool(args.trace))
        record["result"] = result
        path = OUT_DIR / f"run-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(lines))
        print(f"run record: {path.relative_to(ROOT)}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
