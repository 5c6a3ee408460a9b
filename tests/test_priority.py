"""Unit tests for bitvector priorities and priority normalization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.errors import ConfigurationError
from repro.util.priority import BitVectorPriority, normalize_priority

bits = st.lists(st.integers(min_value=0, max_value=1), max_size=12)


def test_empty_is_highest():
    assert BitVectorPriority() < BitVectorPriority((0,))
    assert BitVectorPriority() < BitVectorPriority((1, 1))


def test_prefix_beats_extension():
    p = BitVectorPriority((1, 0))
    assert p < p.extend(0)
    assert p < p.extend(1)


def test_zero_beats_one_at_first_difference():
    assert BitVectorPriority((0, 1, 1)) < BitVectorPriority((1, 0, 0))


def test_equality_and_hash():
    a = BitVectorPriority((1, 0, 1))
    b = BitVectorPriority([1, 0, 1])
    assert a == b
    assert hash(a) == hash(b)
    assert a != BitVectorPriority((1, 0))


def test_invalid_bits_rejected():
    with pytest.raises(ConfigurationError):
        BitVectorPriority((0, 2))


def test_child_orders_siblings():
    root = BitVectorPriority()
    kids = [root.child(i, 5) for i in range(5)]
    assert kids == sorted(kids)
    assert all(root < k for k in kids)


def test_child_encoding_width():
    root = BitVectorPriority((1,))
    assert len(root.child(0, 2)) == 2      # 1 bit for fanout 2
    assert len(root.child(0, 5)) == 4      # 3 bits for fanout 5
    assert len(root.child(0, 1)) == 2      # at least one bit


def test_child_validates_range():
    root = BitVectorPriority()
    with pytest.raises(ConfigurationError):
        root.child(5, 5)
    with pytest.raises(ConfigurationError):
        root.child(0, 0)


def test_repr_shows_bits():
    assert "101" in repr(BitVectorPriority((1, 0, 1)))


# ------------------------------------------------------------- normalization
def test_normalize_none_sorts_last():
    assert normalize_priority(None) > normalize_priority(10**9)
    assert normalize_priority(None) > normalize_priority(BitVectorPriority((1, 1)))


def test_normalize_ints_and_floats_interleave():
    assert normalize_priority(1) < normalize_priority(2.5)
    assert normalize_priority(-3) < normalize_priority(0)


def test_normalize_sequence_equals_bitvector():
    assert normalize_priority((1, 0)) == normalize_priority(BitVectorPriority((1, 0)))


def test_normalize_rejects_strings():
    with pytest.raises(ConfigurationError):
        normalize_priority("high")


def test_numeric_class_sorts_before_bitvector_class():
    # Deliberate convention: explicit numeric priorities outrank bitvectors.
    assert normalize_priority(10**6) < normalize_priority(BitVectorPriority())


@given(bits, bits)
def test_property_order_matches_tuple_order(a, b):
    pa, pb = BitVectorPriority(a), BitVectorPriority(b)
    assert (pa < pb) == (tuple(a) < tuple(b))
    assert (pa == pb) == (tuple(a) == tuple(b))


@given(bits, st.integers(min_value=1, max_value=8))
def test_property_children_sorted_and_below_parent(base, fanout):
    parent = BitVectorPriority(base)
    kids = [parent.child(i, fanout) for i in range(fanout)]
    assert kids == sorted(kids)
    assert all(parent < k for k in kids)
    assert len(set(kids)) == fanout


@given(bits, bits, bits)
def test_property_normalize_is_total_order(a, b, c):
    ka, kb, kc = (normalize_priority(BitVectorPriority(x)) for x in (a, b, c))
    # transitivity spot-check on normalized keys
    if ka <= kb and kb <= kc:
        assert ka <= kc


# ---------------------------------------------------------------- bad inputs
@pytest.mark.parametrize("bad", [
    (1.0, 0.5),            # used to truncate to BitVectorPriority(10)
    (0.5,),
    (1, float("nan")),     # a bare ValueError
    ("1",),                # used to parse
])
def test_non_binary_bit_rejected(bad):
    with pytest.raises(ConfigurationError, match="0 or 1"):
        BitVectorPriority(bad)
    with pytest.raises(ConfigurationError, match="0 or 1"):
        BitVectorPriority().extend(*bad)


@pytest.mark.parametrize("bits, expected", [
    ((1.0, 0.0), (1, 0)),
    ((True, False, 1), (1, 0, 1)),
    ((np.int64(1), np.int8(0)), (1, 0)),
])
def test_bits_equal_to_zero_or_one_accepted(bits, expected):
    p = BitVectorPriority(bits)
    assert p.bits == expected and p == BitVectorPriority(expected)
    assert repr(p) == "BitVectorPriority(%s)" % "".join(map(str, expected))


@pytest.mark.parametrize("index, fanout, field", [
    (1.5, 4, "index"),     # a bare TypeError
    (1, 4.0, "fanout"),    # a bare AttributeError
    ("1", 4, "index"),
])
def test_child_rejects_non_integral_index_and_fanout(index, fanout, field):
    with pytest.raises(ConfigurationError, match=field):
        BitVectorPriority((1,)).child(index, fanout)


def test_child_nearest_valid_inputs_keep_parent_answers():
    root = BitVectorPriority((1,))
    assert repr(root.child(1, 4)) == "BitVectorPriority(101)"
    assert repr(root.child(3, 5)) == "BitVectorPriority(1011)"
    assert repr(root.child(np.int64(0), True)) == "BitVectorPriority(10)"


@pytest.mark.parametrize("bad", [float("nan"), -float("nan"), np.float64("nan")])
def test_normalize_rejects_nan(bad):
    with pytest.raises(ConfigurationError, match="priority"):
        normalize_priority(bad)


@pytest.mark.parametrize("good", [float("inf"), -float("inf"), 3, 3.0, True])
def test_normalize_keeps_infinities_ints_and_bools(good):
    assert normalize_priority(good) == (0, good)
