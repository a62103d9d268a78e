import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from countstrat import jsonfmt
from countstrat.jsonfmt import format_float

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@given(finite_floats)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
    assert math.copysign(1.0, float(format_float(x))) == math.copysign(1.0, x)


@given(json_docs)
def test_dumps_loads_round_trip(doc):
    # integral floats print without a fraction and reload as equal ints
    assert jsonfmt.loads(jsonfmt.dumps(doc)) == doc


class _Str(str):
    """A str of another type: lists of it take the item loop, not the
    list-of-str join."""


def _via_item_loop(doc):
    if isinstance(doc, str):
        return _Str(doc)
    if isinstance(doc, (list, tuple)):
        return [_via_item_loop(item) for item in doc]
    return doc


mixed_lists = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(max_size=6) | st.lists(st.text(max_size=6), max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner),
    max_leaves=20,
)


@given(mixed_lists)
@example(['say "hi"', 'a\\b', "\\", '"'])
@example(["\x00\x01\t\n\r\x1f\x7f", "\u2028\u2029"])
@example(["café", "Ωμέγα", "日本語"])
@example(["\U0001F600", "\U00010000\U0010FFFF", "\ud800"])
@example([["a", "b"], ["\U0001F600\"\\"], ()])
def test_str_list_join_matches_item_loop(doc):
    assert jsonfmt.dumps(doc) == jsonfmt.dumps(_via_item_loop(doc))


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ([1.0, float("nan")], ValueError, "cannot serialize non-finite float nan"),
        ({"a": float("-inf")}, ValueError, "cannot serialize non-finite float -inf"),
        ({1: "a"}, TypeError, "JSON keys must be strings"),
        ([{"a", "b"}], TypeError, "cannot serialize <class 'set'>"),
    ],
)
def test_dumps_rejects_what_json_cannot_hold(doc, error, message):
    with pytest.raises(error, match=message):
        jsonfmt.dumps(doc)
