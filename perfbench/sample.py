"""One timed sample of a workload, in the fresh interpreter it runs in.

    python3 perfbench/sample.py --workload NAME --seed N [--trace --spans FILE]

Prints one JSON object: the workload's solve and setup time, the
interpreter's peak RSS, and per scenario the report's SHA-256 and the
reason it is not exact (null when it is).  With --trace it installs the
tracer first, adds the per-layer metrics and writes the spans to FILE.
`run.py` starts one of these per sample, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # One core for the whole sample: migrations between cores made the
        # spread of run medians about twice as wide.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import eqcol.report as report_mod
    import eqcol.scenario as scenario_mod

    cases = workloads.cases(args.workload, args.seed)
    references = [workloads.reference_sha256(case) for case in cases]
    parsed = [scenario_mod.parse_scenario(case.data, default_name=case.name)
              for case in cases]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    setup_times = []
    build_setup = scenario_mod.build_setup

    def timed_build_setup(scenario):
        start = perf_counter()
        try:
            return build_setup(scenario)
        finally:
            setup_times.append(perf_counter() - start)

    scenario_mod.build_setup = timed_build_setup

    solve_s = 0.0
    steps = 0
    runs = []
    for request, (case, scenario, reference) in enumerate(
            zip(cases, parsed, references), start=1):
        if tracer is not None:
            tracer.request = request
        start = perf_counter()
        try:
            report = scenario_mod.run_scenario(scenario)
            text = report_mod.emit_report_json(report)
        except Exception as exc:  # a failed scenario is counted, not fatal
            solve_s += perf_counter() - start
            runs.append({"name": case.name, "sha256": None,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        solve_s += perf_counter() - start
        digest = workloads.sha256(text.encode())
        runs.append({"name": case.name, "sha256": digest,
                     "error": workloads.check_report(case, report, digest,
                                                     reference)})
        steps += workloads.mutation_steps(report)

    result = {
        "solve_s": solve_s,
        "setup_s": sum(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": runs,
    }
    if tracer is not None:
        result["layers"] = tracer.values(steps)
        result["missing_hooks"] = tracer.missing
        result["hook_calls"] = tracer.hook_calls()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
