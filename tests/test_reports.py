import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import reports

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(),  # NaN, infinities, -0.0 and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e308]),
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\/\n\t']),
    st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
_KEYS = st.one_of(st.text(max_size=6), st.integers(-5, 5))
_VALUES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.tuples(children, children),
    st.dictionaries(_KEYS, children, max_size=5),
), max_leaves=40)


def _stdlib_text(payload):
    return json.dumps(reports.to_jsonable(payload), sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(payload=_VALUES)
def test_write_json_writes_the_bytes_of_the_stdlib_encoder(payload, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "write_json.json"
    reports.write_json(path, payload)
    assert path.read_text() == _stdlib_text(payload)


@pytest.mark.parametrize("payload", [
    {}, [], {"a": {}}, {"a": []}, [[], {}], {"a": [[], {"b": {}}, [[]]], "c": 1},
    [[[[]]]], {"x": {"y": {"z": {}}}}, [1, [2, [3, {}]], "4"],
])
def test_write_json_lays_out_empty_containers_like_the_stdlib(payload, tmp_path):
    path = tmp_path / "out.json"
    reports.write_json(path, payload)
    assert path.read_text() == _stdlib_text(payload)


@pytest.mark.parametrize("payload", [
    object(), {"a": object()}, {"a": [1, {"b": {2}}]}, [1, {"c": object()}, []],
])
def test_write_json_refuses_what_the_stdlib_refuses(payload, tmp_path):
    with pytest.raises(TypeError):
        _stdlib_text(payload)
    with pytest.raises(TypeError):
        reports.write_json(tmp_path / "out.json", payload)
