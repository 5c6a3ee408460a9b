"""Unit tests for the wire-size payload model."""

import numpy as np
from hypothesis import given, strategies as st

from repro.util.sizing import payload_nbytes


def test_scalars():
    assert payload_nbytes(None) == 1
    assert payload_nbytes(True) == 1
    assert payload_nbytes(0) == 8
    assert payload_nbytes(3.14) == 8


def test_big_ints_grow():
    assert payload_nbytes(2**100) > payload_nbytes(7)


def test_strings_and_bytes():
    assert payload_nbytes("") == 4
    assert payload_nbytes("abcd") == 8
    assert payload_nbytes(b"abcd") == 8
    assert payload_nbytes("é") == 4 + 2  # utf-8


def test_numpy_arrays_use_nbytes():
    arr = np.zeros(10, dtype=np.float64)
    assert payload_nbytes(arr) == 4 + 80
    assert payload_nbytes(np.float32(1.0)) == 4


def test_plain_array_fast_path_equals_the_general_model():
    """A plain ndarray is sized by exact type, alone or in a tuple; a
    subclass (np.matrix) takes the general chain.  Both read the same."""
    import warnings

    from repro.util.sizing import _general_nbytes

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        matrix = np.matrix([[1.0, 2.0], [3.0, 4.0]])
    arrays = [
        np.array(3.5),                                  # 0-d
        np.zeros(0), np.zeros((3, 0), dtype=np.int8),   # empty
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(10, dtype=np.int32)[::2],             # strided view
        np.ones((2, 3), dtype=np.complex128),
        np.array([True, False]), np.array(["ab", "c"]),
        np.empty(5, dtype=np.float16),
        matrix,
    ]
    for arr in arrays:
        size = _general_nbytes(arr)
        assert size == 4 + arr.nbytes
        assert payload_nbytes(arr) == size
        assert payload_nbytes((1, arr)) == _general_nbytes((1, arr))
        assert payload_nbytes([arr, arr]) == 4 + 2 * size


def test_containers_sum_recursively():
    assert payload_nbytes((1, 2)) == 4 + 16
    assert payload_nbytes([1, (2, 3)]) == 4 + 8 + 4 + 16
    assert payload_nbytes({"a": 1}) == 4 + (4 + 1) + 8


def test_wire_size_hook_respected():
    class Thing:
        def __wire_size__(self):
            return 123

    assert payload_nbytes(Thing()) == 123


def test_unknown_objects_flat_cost():
    class Opaque:
        pass

    assert payload_nbytes(Opaque()) == 64


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=50))
def test_property_list_size_linear(items):
    assert payload_nbytes(items) == 4 + 8 * len(items)


@given(st.text(max_size=100))
def test_property_text_matches_utf8(s):
    assert payload_nbytes(s) == 4 + len(s.encode("utf-8"))


@given(
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=5)),
        lambda children: st.lists(children, max_size=4) | st.tuples(children, children),
        max_leaves=20,
    )
)
def test_property_total_and_positive(payload):
    assert payload_nbytes(payload) >= 1
