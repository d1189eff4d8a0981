"""Capture the pinned reference reports of the two pipeline workloads.

    python3 perfbench/capture_reference.py

Runs each pipeline scenario once through the public API and writes
`reference/<name>.report.json.gz` (gzip of the canonical report bytes) and
`reference/MANIFEST.json` (SHA-256 of the uncompressed bytes, the commit
and the Python version they came from).  The committed references were
captured at the commit named in the manifest; re-capture only when a
change to the report format is intended, and say so in the change.
"""

from __future__ import annotations

import gzip
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from runinfo import git_commit  # noqa: E402


def main() -> int:
    from eqcol.report import emit_report_json
    from eqcol.scenario import parse_scenario, run_scenario

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    manifest = {"commit": git_commit(),
                "python": platform.python_version(),
                "reports": {}}
    for name, case in workloads.pipeline_cases().items():
        text = emit_report_json(run_scenario(
            parse_scenario(case.data, default_name=case.name)))
        data = text.encode()
        case.reference.write_bytes(gzip.compress(data, mtime=0))
        manifest["reports"][case.reference.name] = {
            "sha256": workloads.sha256(data), "bytes": len(data)}
        print(f"{name}: {len(data)} bytes, sha256 {workloads.sha256(data)}")
    (workloads.REFERENCE_DIR / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
