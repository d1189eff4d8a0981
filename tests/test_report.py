"""The report emitter against `json.dumps(indent=2, sort_keys=True)`.

json's own encoder is the oracle: on any tree of dicts, lists, tuples,
strings, ints, bools, None and floats the emitter must give the same text,
whole (`emit_report_json`) or written in chunks (`write_report_json`).
"""

import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from eqcol.report import emit_report_json, write_report_json

SWEEP = settings(derandomize=True, max_examples=200, deadline=None)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(alphabet="aé\"\\\n \U0001f600", max_size=4),
)

# One kind of key per dict: json sorts the keys before it converts them,
# and keys of mixed kinds need not be comparable.
key_kinds = st.sampled_from([
    st.text(max_size=6),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
])

trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(min_value=-2, max_value=2), max_size=6),
        key_kinds.flatmap(
            lambda keys: st.dictionaries(keys, children, max_size=5)),
    ),
    max_leaves=40,
)


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _written(obj) -> str:
    fp = io.StringIO()
    write_report_json(obj, fp)
    return fp.getvalue()


@SWEEP
@given(trees)
@example({"base_change": [[1, 0], [0, 1], [1, 0]], "gram": [[1, 0], [0, 1]]})
@example([[1, 0], [True, False], [1.0, 0], [1, 0], []])
@example({1: "int", 2.5: "float", -0.0: None})
@example({True: [], False: {}})
@example({None: [[[]]]})
@example(["café", "\ud800", "\x00\x1f\x7f", float("nan"), -math.inf, 1e300])
@example((1, (2, (3,)), {"a": (4, 5)}))
def test_emitter_matches_json_dumps(obj):
    expected = _oracle(obj)
    assert emit_report_json(obj) == expected
    assert _written(obj) == expected


def test_int_rows_are_memoized_per_depth():
    # one identity row at two depths must keep each depth's indentation
    row = [0, 1, 0]
    obj = {"a": [row, row], "b": [[row, row]], "c": row}
    assert emit_report_json(obj) == _oracle(obj)


def test_writer_flushes_in_chunks():
    class Recorder(io.StringIO):
        writes = 0

        def write(self, text):
            Recorder.writes += 1
            return super().write(text)

    obj = {"rows": [{"k": i, "v": [i, "x"]} for i in range(3000)]}
    fp = Recorder()
    write_report_json(obj, fp)
    assert fp.getvalue() == _oracle(obj)
    assert Recorder.writes > 1


@pytest.mark.parametrize("obj, match", [
    ({"x": {1, 2}}, "not JSON serializable"),
    ([object()], "not JSON serializable"),
    ({(1, 2): 3}, "keys must be"),
    ({"a": 1, 2: 3}, "not supported between"),
])
def test_unencodable_input_raises_like_json(obj, match):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=match):
        emit_report_json(obj)
