"""Unit tests for stable content hashing (table key placement)."""

import enum
import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bench.harness import describe
from repro.faults import FaultConfig
from repro.util.errors import SharingError
from repro.util.hashing import stable_digest, stable_hash

keys = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.tuples(st.integers(), st.text(max_size=5)),
)


def test_deterministic():
    assert stable_hash("hello") == stable_hash("hello")
    assert stable_hash((1, "a")) == stable_hash((1, "a"))


def test_distinguishes_types():
    assert stable_hash(1) != stable_hash("1")
    assert stable_hash(1) != stable_hash(1.0)
    assert stable_hash(True) != stable_hash(1)
    assert stable_hash(b"a") != stable_hash("a")
    assert stable_hash(None) != stable_hash(0)


def test_tuple_structure_matters():
    assert stable_hash((1, 2)) != stable_hash((2, 1))
    assert stable_hash(((1,), 2)) != stable_hash((1, (2,)))


def test_rejects_unhashable_types():
    with pytest.raises(SharingError):
        stable_hash([1, 2])
    with pytest.raises(SharingError):
        stable_hash({"a": 1})
    # ... wherever they sit, through either entry point, numpy ints too
    # (np.float64 is a float, np.int64 is not an int).
    for bad in ({1, 2}, (1, [2]), ("k", ({"a": 1},)), np.int64(3)):
        with pytest.raises(SharingError, match="unhashable table key type"):
            stable_hash(bad)
        with pytest.raises(SharingError):
            stable_digest(bad)


def test_known_value_is_stable_across_runs():
    # Pin one value: catches accidental algorithm changes that would move
    # every table shard (and silently invalidate recorded experiments).
    assert stable_hash("key-00000-0") == stable_hash("key-00000-0")
    assert isinstance(stable_hash("pinned"), int)


@given(keys)
def test_property_in_64bit_range(key):
    h = stable_hash(key)
    assert 0 <= h < 2**64


@given(keys, keys)
def test_property_equal_keys_equal_hashes(a, b):
    if a == b and type(a) is type(b):
        assert stable_hash(a) == stable_hash(b)


@given(st.lists(st.text(min_size=1, max_size=10), min_size=50, max_size=50, unique=True))
def test_property_spreads_over_pes(unique_keys):
    # Not a statistical test — just "doesn't collapse to one shard".
    shards = {stable_hash(k) % 8 for k in unique_keys}
    assert len(shards) > 1


# ------------------------------------------------- pinned digests, all types
class MyInt(int):
    pass


class MyStr(str):
    pass


class MyFloat(float):
    pass


class Colour(enum.IntEnum):
    RED = 3


# ``_feed`` encodes an int as ``str(obj)``, and str() of an IntEnum member
# is its value from Python 3.11 on and "Colour.RED" before.
COLOUR_RED = ((7420331614741189737, "e8ca8747e0599d8eb6c94a022c0f4586")
              if sys.version_info >= (3, 11) else
              (2944161077000815339, "40df925f2ae57b81cd8ffc371a6d365d"))

# (key, stable_hash, stable_digest) as the parent commit computed them, when
# ``_feed`` was one isinstance chain.  The last three are cache keys:
# ``RunDescriptor.key(fingerprint)`` is the digest of exactly this pair.
PINNED = [
    (None, 16938330391483325906, "738096e476d3c5447c3cb95c39bfc964"),
    (True, 16039755183289441794, "8cba3d5400f67d313d2744f0f3e52a7a"),
    (False, 9968248002386055549, "87fc085c32d656a8eb05a420e0c4b7bf"),
    (0, 11451969055077670819, "27bd454ec797a969e286104960e433e5"),
    (-5, 14035333248470253385, "94f01a891fd644126971127fa7dfb94c"),
    (10**30, 16752918884240426969, "bf339f9ab12bdc5a3369270e5fcec81e"),
    (1.5, 11397430826579698282, "e35235d155d43929a6ce1bd302c7432a"),
    (-0.0, 16581184075113296628, "cf5762d762b632866fcfda98fc552890"),
    (float("inf"), 9052595279643727425, "980ee2b9ff336da3dc32f677c35b4d04"),
    (float("nan"), 8350173827676864267, "06c7f0a26bd6de4b6dbd8ca04fab5e36"),
    ("", 9165027808296529472, "fd7e0e7097decd536a41e66721d2c3d6"),
    ("h\u00e9llo \u2713", 7393510530331422134,
     "31a19d787cf7100f9cc5b1de09506884"),
    ("key-00000-0", 10066269407076372371, "bfc153deb3e2264a88e91ed11a45c0ec"),
    (b"", 16135031527674181028, "1bb7ba4159107fd2e4a995711d77ea61"),
    (b"\x00\xff", 14741698301550366657, "dd84b52acb08450f1289b1cbabf17542"),
    (bytearray(b"abc"), 4542879904980848948,
     "b33854b5f546c4cf80511df5dfdc2b6b"),
    ((), 14273723597168780675, "e86006e14f63586fd29049a380fa1005"),
    ((1,), 13546806753516049613, "bf65703944397f5cba67f9838c1e34f4"),
    ((1, "a"), 8845948561691546304, "be5a17e714daad517c3f892f99324364"),
    (((1,), 2), 12913497625709150312, "bc9ab0da3e0656460c0ea2fbb0d2c3df"),
    ((1, (2,)), 10255406956782140384, "56fb8662fa9212dacc76f23e824499fe"),
    (("tbl", 7), 17163423074191351850, "43f754a52a036e861ff984af9c3fc442"),
    ((None, True, 1.5, "x", b"y"), 10096114243903301659,
     "01a84c97a8a2ca89fa2b628b87af9e8e"),
    (((), ((),)), 6695023088087193041, "d75f0802fc8d67596cfdd8e5aec57877"),
    (Colour.RED, *COLOUR_RED),
    (MyInt(7), 1236202590831466851, "6224a32af87437ac551448ad4c2363f1"),
    (MyStr("sub"), 14543671298871118007, "35664484fd90ecb6fac8bdb669337225"),
    (MyFloat(2.5), 4622792627107170439, "e2b22fe5f335616d717fe1773d9f6c78"),
    (np.float64(1.5), 11397430826579698282,
     "e35235d155d43929a6ce1bd302c7432a"),
    ((MyInt(7), (MyStr("sub"), MyFloat(2.5))), 12483630960253781862,
     "d97da4091e0d50b4bf5d69e5896c3829"),
    (("fp", describe("queens", "ncube2", 64, n=6, grainsize=2).canonical()),
     7814801479612052138, "e2006b2270a786ae146cd6b47cf2a1b7"),
    (("0123abcd", describe("serving", "ncube2", 8, trace="all",
                           metrics=0.005).canonical()),
     16362382169010956770, "636d39a05a559bd70f3833f1bdd2185f"),
    (("x", describe("queens", "ncube2", 8, n=6, grainsize=2,
                    faults=FaultConfig(drop_prob=0.05),
                    machine_scaled={"link_bandwidth": 2.8e6}).canonical()),
     7535113542233154006, "98a746bab66ee39a85e61edf4a607e1c"),
]


@pytest.mark.parametrize("key, hashed, digest", PINNED,
                         ids=[f"{i}-{type(row[0]).__name__}"
                              for i, row in enumerate(PINNED)])
def test_pinned_hash_and_digest(key, hashed, digest):
    assert stable_hash(key) == hashed
    assert stable_digest(key) == digest


def _parent_feed(h, obj):
    """``_feed`` as it was before the exact-type tests: the oracle."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, int):
        h.update(b"I")
        h.update(str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"F")
        h.update(obj.hex().encode())
    elif isinstance(obj, str):
        h.update(b"S")
        h.update(obj.encode("utf-8"))
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"Y")
        h.update(bytes(obj))
    elif isinstance(obj, tuple):
        h.update(b"T(")
        for x in obj:
            _parent_feed(h, x)
            h.update(b",")
        h.update(b")")
    else:
        raise SharingError(type(obj).__name__)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(MyInt),
    st.just(Colour.RED),
    st.floats(allow_nan=True),
    st.floats(allow_nan=False).map(MyFloat),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=12),
    st.text(max_size=12).map(MyStr),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
)
nested_keys = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12)


@given(nested_keys)
def test_property_digests_equal_the_parent_chains(key):
    for size in (8, 16):
        oracle = hashlib.blake2b(digest_size=size)
        _parent_feed(oracle, key)
        assert stable_digest(key, digest_size=size) == oracle.hexdigest()
    assert stable_hash(key) == int.from_bytes(
        bytes.fromhex(stable_digest(key, digest_size=8)), "little")
