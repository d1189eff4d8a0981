"""Report emitters: canonical JSON, DOT quivers, plain-text tables.

Everything here is deterministic: identical inputs give identical bytes.
The JSON form is a fixed point of parse-then-emit, so committed fixtures
can be compared byte for byte.
"""

from __future__ import annotations

import json


def emit_report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def emit_dot(labels, arrows, name: str = "quiver") -> str:
    """Directed graph, one edge per arrow (parallel edges kept), nodes in
    collection order; arrows[i][j] counts the arrows from node i to j."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for i, label in enumerate(labels):
        escaped = label.replace('"', '\\"')
        lines.append(f'  n{i} [label="{escaped}"];')
    for i in range(len(labels)):
        for j in range(len(labels)):
            lines.extend([f"  n{i} -> n{j};"] * arrows[i][j])
    lines.append("}")
    return "\n".join(lines) + "\n"


def molien_text(dimensions: list[int]) -> str:
    lines = ["degree invariants"]
    for m, dim in enumerate(dimensions):
        lines.append(f"{m} {dim}")
    return "\n".join(lines) + "\n"


def gram_text(labels, gram) -> str:
    lines = [" ".join(labels)]
    for row in gram:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
