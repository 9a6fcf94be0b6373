"""The canonical JSON writer against json.dumps(..., indent=2), its oracle.

dumps renders indent-2 JSON itself, and writes lists of ints and matrices
of ints from their repr; json.dumps with indent takes the pure-Python
encoder and is the slow, obvious route it must agree with byte for byte.
dumps refuses floats, so no float crosses the output boundary.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from wehrhart.jsonio import dumps

# strings made of the pieces the repr route splits on, quotes, escapes and non-ASCII
TRICKY = st.text(alphabet=st.sampled_from([",", " ", "[", "]", '"', "\\", "\n", "a", "é", "日", "\U0001f600"]))
STRINGS = st.one_of(st.text(), TRICKY, st.sampled_from([", ", "], [", "[1, 2]", ""]))
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
SCALARS = st.one_of(INTS, STRINGS, st.booleans(), st.none())
INT_LISTS = st.lists(st.one_of(INTS, st.booleans(), st.none()))
# ragged int matrices; rows may be empty
MATRICES = st.lists(st.lists(INTS, max_size=4), max_size=5)
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, INT_LISTS, MATRICES),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(STRINGS, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example([])
@example({})
@example([[]])
@example([[1, 2], []])
@example([[1, 2], [3]])
@example([[-1], [2**70, 0]])
@example([True, 1])
@example([1, None])
@example([1, "a"])
@example([[1], ["a"]])
@example([[1], [True]])
@example({"k": [[1, 2], [3, 4]], "s": "], [", "t": ", "})
def test_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        float("nan"),
        [1, 2.0],
        [[1, 2], [3, 4.0]],
        {"a": [0.5]},
        {1: "a"},
        {"a": {2: []}},
    ],
    ids=["float", "nan", "float-in-int-list", "float-in-matrix", "nested-float", "int-key", "nested-int-key"],
)
def test_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_refuses_int_subclasses_and_tuples():
    class Count(int):
        pass

    for value in (Count(3), [Count(3)], (1, 2), [[1], (2,)]):
        with pytest.raises(TypeError):
            dumps(value)
