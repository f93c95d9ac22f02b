"""``jsonio.dumps`` writes the bytes, and raises the errors, of the writer it
replaced (``helpers.legacy_dumps``) on any nested value: every report the
program prints depends on it."""

import hypothesis
import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import legacy_dumps
from oddcoupling.jsonio import dumps

NUMPY_SCALARS = st.one_of(
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.text().map(np.str_),
)

UNSUPPORTED = st.sampled_from([
    set(), frozenset({1}), b"bytes", 1j, object(), np.complex128(1 + 2j),
    np.array(1.0), np.array([1 + 1j]), range(2),
])

ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([0.0, -0.0]),
    st.text(), NUMPY_SCALARS, ARRAYS, UNSUPPORTED,
)

KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.none(), st.booleans(),
                 st.tuples(st.integers(), st.text()))

VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(KEYS, inner, max_size=4),
), max_leaves=20)


def outcome(write, obj):
    """The text ``write`` gives for ``obj``, or its exception's type and
    message."""
    try:
        return write(obj)
    except Exception as exc:
        return type(exc), str(exc)


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
@hypothesis.given(VALUES)
def test_dumps_matches_the_legacy_writer(obj):
    assert outcome(dumps, obj) == outcome(legacy_dumps, obj)


def test_the_oracle_sees_every_kind_of_outcome():
    # text, a non-finite float, an unsupported type, a 0-d array
    assert outcome(dumps, {1: [np.float64(-0.0), (), {}]}) == \
        '{\n  "1": [\n    -0.0,\n    [],\n    {}\n  ]\n}\n'
    assert outcome(dumps, [1, float("nan"), set()])[1] == "cannot serialize non-finite float nan"
    assert outcome(dumps, [1, set(), float("nan")])[1] == "cannot serialize set"
    assert outcome(dumps, np.array(2.0)) == (TypeError, "iteration over a 0-d array")
