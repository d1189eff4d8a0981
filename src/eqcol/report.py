"""Report emitters: canonical JSON, DOT quivers, plain-text tables.

Everything here is deterministic: identical inputs give identical bytes.
The JSON form is a fixed point of parse-then-emit, so committed fixtures
can be compared byte for byte.  It is written by this module's own
emitter, which gives the bytes of `json.dumps(indent=2, sort_keys=True)`
and joins each list of ints in one step, so a report costs about one
chunk per base-change row rather than one per integer.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

_INDENT = "  "
_FLUSH_CHUNKS = 4096


def emit_report_json(report: dict) -> str:
    """The canonical report text, `json.dumps(report, indent=2,
    sort_keys=True)` plus a newline."""
    chunks = list(_chunks(report, 0, {}))
    chunks.append("\n")
    return "".join(chunks)


def write_report_json(report: dict, fp) -> None:
    """Write the text of emit_report_json to the text file fp in chunks,
    so the whole text is never held at once."""
    buffer = []
    for chunk in _chunks(report, 0, {}):
        buffer.append(chunk)
        if len(buffer) >= _FLUSH_CHUNKS:
            fp.write("".join(buffer))
            buffer.clear()
    buffer.append("\n")
    fp.write("".join(buffer))


def _chunks(obj, level: int, memo: dict):
    """Text of obj nested `level` deep, in the grammar of
    `json.dumps(indent=2, sort_keys=True)`: keys sorted before they are
    converted as json converts them, strings escaped to ASCII, floats by
    `float.__repr__`.  A list of plain ints is one chunk, memoized per
    (level, entries) in memo, since the identity rows of the recorded base
    changes repeat."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        if set(map(type, obj)) == {int}:
            key = (level, tuple(obj))
            text = memo.get(key)
            if text is None:
                inner = "\n" + _INDENT * (level + 1)
                text = memo[key] = ("[" + inner
                                    + ("," + inner).join(map(int.__repr__, obj))
                                    + "\n" + _INDENT * level + "]")
            yield text
            return
        inner = "\n" + _INDENT * (level + 1)
        separator = "["
        for item in obj:
            yield separator + inner
            separator = ","
            yield from _chunks(item, level + 1, memo)
        yield "\n" + _INDENT * level + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = "\n" + _INDENT * (level + 1)
        separator = "{"
        for key, value in sorted(obj.items()):
            yield separator + inner + _key(key) + ": "
            separator = ","
            yield from _chunks(value, level + 1, memo)
        yield "\n" + _INDENT * level + "}"
    else:
        yield _scalar(obj)


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar(key) + '"'
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


def emit_dot(labels, arrows) -> str:
    """Directed graph, one edge per arrow (parallel edges kept), nodes in
    collection order; arrows[i][j] counts the arrows from node i to j.
    Labels escape backslashes, then quotes."""
    lines = ["digraph quiver {", "  rankdir=LR;"]
    for i, label in enumerate(labels):
        escaped = label.replace("\\", "\\\\").replace('"', '\\"')
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
