"""Unit tests for the queueing strategies."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.queueing.strategies import (
    BitvectorPriorityStrategy,
    FifoStrategy,
    IntPriorityStrategy,
    LifoPriorityStrategy,
    LifoStrategy,
    make_strategy,
)
from repro.util.errors import ConfigurationError, SchedulingError
from repro.util.priority import BitVectorPriority, normalize_priority
from repro.util.rng import RngStream


def drain(q):
    out = []
    while q:
        out.append(q.pop())
    return out


def test_fifo_order():
    q = FifoStrategy()
    for x in "abc":
        q.push(x)
    assert drain(q) == ["a", "b", "c"]


def test_lifo_order():
    q = LifoStrategy()
    for x in "abc":
        q.push(x)
    assert drain(q) == ["c", "b", "a"]


def test_priority_order_smallest_first():
    q = IntPriorityStrategy()
    q.push("low", 10)
    q.push("high", 1)
    q.push("mid", 5)
    assert drain(q) == ["high", "mid", "low"]


def test_priority_stable_on_ties():
    q = IntPriorityStrategy()
    for i in range(5):
        q.push(i, 7)
    assert drain(q) == [0, 1, 2, 3, 4]


def test_unprioritized_items_run_after_prioritized():
    q = IntPriorityStrategy()
    q.push("none", None)
    q.push("big", 10**9)
    assert drain(q) == ["big", "none"]


def test_bitvector_priorities_order_lexicographically():
    q = BitvectorPriorityStrategy()
    q.push("deep", BitVectorPriority((1, 0, 1)))
    q.push("shallow", BitVectorPriority((1, 0)))
    q.push("left", BitVectorPriority((0, 1)))
    assert drain(q) == ["left", "shallow", "deep"]


def test_pop_empty_raises():
    for name in ("fifo", "lifo", "prio", "bitprio"):
        with pytest.raises(SchedulingError):
            make_strategy(name).pop()


def test_make_strategy_unknown():
    with pytest.raises(ConfigurationError):
        make_strategy("sjf")


@given(st.lists(st.tuples(st.integers(), st.integers(min_value=-100, max_value=100))))
def test_property_priority_pop_is_sorted(items):
    q = IntPriorityStrategy()
    for value, prio in items:
        q.push(value, prio)
    prios_out = []
    while q:
        q_len = len(q)
        item = q.pop()
        assert len(q) == q_len - 1
        # find priority: we can't recover it from item alone; re-push trick:
        prios_out.append(item)
    assert len(prios_out) == len(items)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6),
                  st.integers(min_value=-50, max_value=50))
    )
)
def test_property_priority_order_matches_stable_sort(items):
    q = IntPriorityStrategy()
    for idx, (value, prio) in enumerate(items):
        q.push((prio, idx, value), prio)
    out = drain(q)
    assert out == sorted(out, key=lambda t: (t[0], t[1]))


@given(st.lists(st.integers()))
def test_property_fifo_lifo_are_reverses(values):
    f, l = FifoStrategy(), LifoStrategy()
    for v in values:
        f.push(v)
        l.push(v)
    assert drain(f) == list(reversed(drain(l)))


# ------------------------------------------------------------------ priolifo


def test_priolifo_smallest_priority_first():
    q = LifoPriorityStrategy()
    q.push("low", 10)
    q.push("high", 1)
    q.push("mid", 5)
    assert drain(q) == ["high", "mid", "low"]


def test_priolifo_lifo_within_equal_priority():
    q = LifoPriorityStrategy()
    for i in range(5):
        q.push(i, 7)
    assert drain(q) == [4, 3, 2, 1, 0]


def test_priolifo_unprioritized_last_and_lifo():
    q = LifoPriorityStrategy()
    q.push("none1", None)
    q.push("big", 10**9)
    q.push("none2", None)
    q.push("small", 1)
    assert drain(q) == ["small", "big", "none2", "none1"]


def test_priolifo_pop_empty_raises():
    with pytest.raises(SchedulingError):
        make_strategy("priolifo").pop()


# ------------------------------------------- mixed priorities, all strategies


def _mixed_items():
    """(item, priority) covering None / ints / floats / bools / bitvectors."""
    return [
        ("none-a", None),
        ("int-5", 5),
        ("float-5", 5.0),
        ("bool", True),
        ("neg", -3),
        ("edge-hi", 4096),       # first value past the bucket fast path
        ("edge-lo", 4095),       # last value inside it
        ("float-frac", 2.5),
        ("bv-10", BitVectorPriority((1, 0))),
        ("bv-101", BitVectorPriority((1, 0, 1))),
        ("bv-01", BitVectorPriority((0, 1))),
        ("none-b", None),
        ("big", 10**9),
    ]


def test_mixed_priorities_order_prio():
    q = IntPriorityStrategy()
    for item, prio in _mixed_items():
        q.push(item, prio)
    # Numerics ascending (ties arrival-order), then bitvectors
    # lexicographically, then unprioritized FIFO.
    assert drain(q) == [
        "neg", "bool", "float-frac", "int-5", "float-5", "edge-lo",
        "edge-hi", "big", "bv-01", "bv-10", "bv-101", "none-a", "none-b",
    ]


def test_mixed_priorities_order_bitprio():
    q = BitvectorPriorityStrategy()
    for item, prio in _mixed_items():
        q.push(item, prio)
    assert drain(q) == [
        "neg", "bool", "float-frac", "int-5", "float-5", "edge-lo",
        "edge-hi", "big", "bv-01", "bv-10", "bv-101", "none-a", "none-b",
    ]


def test_mixed_priorities_order_priolifo():
    q = LifoPriorityStrategy()
    for item, prio in _mixed_items():
        q.push(item, prio)
    # Same priority order, but ties (5 == 5.0 == push order) pop newest
    # first, and unprioritized items pop LIFO.
    assert drain(q) == [
        "neg", "bool", "float-frac", "float-5", "int-5", "edge-lo",
        "edge-hi", "big", "bv-01", "bv-10", "bv-101", "none-b", "none-a",
    ]


def test_mixed_priorities_fifo_lifo_ignore_them():
    items = _mixed_items()
    f, l = FifoStrategy(), LifoStrategy()
    for item, prio in items:
        f.push(item, prio)
        l.push(item, prio)
    names = [item for item, _ in items]
    assert drain(f) == names
    assert drain(l) == list(reversed(names))


# ------------------------------------- randomized pool vs single-heap oracle


def _random_mixed_priority(rng):
    kind = rng.randint(0, 11)
    if kind == 0:
        return None
    if kind == 1:
        return rng.randint(-10, 10)
    if kind == 2:
        return rng.choice([4094, 4095, 4096, 4097])  # old bucket-limit edges
    if kind == 3:
        return float(rng.randint(0, 20))              # integral floats
    if kind == 4:
        return bool(rng.randint(0, 2))
    if kind == 5:
        return rng.uniform(-5.0, 5.0)
    if kind == 6:                                     # negative and huge ints
        return rng.randint(-(10**9), 10**9) * 10**12
    if kind == 7:
        return rng.choice([-(2**70), -(2**63), 2**63, 10**30])
    if kind == 8:                                     # past the old 63-bit chunk
        return BitVectorPriority(rng.randint(0, 2)
                                 for _ in range(rng.randint(60, 140)))
    return BitVectorPriority(rng.randint(0, 2)
                             for _ in range(rng.randint(0, 8)))


class _OracleHeap:
    """Reference implementation: one heap of (key, seq, item)."""

    def __init__(self, lifo=False):
        self._heap = []
        self._seq = 0
        self._lifo = lifo

    def push(self, item, priority=None):
        self._seq += 1
        seq = -self._seq if self._lifo else self._seq
        heapq.heappush(self._heap, (normalize_priority(priority), seq, item))

    def pop(self):
        return heapq.heappop(self._heap)[2]

    def __len__(self):
        return len(self._heap)


@pytest.mark.parametrize("name", ["prio", "bitprio", "priolifo"])
def test_lane_split_pool_matches_single_heap_oracle(name):
    """Interleaved push/pop: the lane-split pools pop the exact sequence a
    plain normalized-key heap would, across every priority shape."""
    rng = RngStream(20260805, "pool-oracle",
                    ["prio", "bitprio", "priolifo"].index(name))
    pool = make_strategy(name)
    oracle = _OracleHeap(lifo=(name == "priolifo"))
    pushed = 0
    for step in range(3_000):
        if len(oracle) and rng.randint(0, 3) == 0:
            assert pool.pop() == oracle.pop()
        else:
            prio = _random_mixed_priority(rng)
            pool.push(pushed, prio)
            oracle.push(pushed, prio)
            pushed += 1
        assert len(pool) == len(oracle)
    while len(oracle):
        assert pool.pop() == oracle.pop()
    assert not pool


# --------------------------------------------------------------- bad inputs


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize("name", ["prio", "bitprio", "priolifo"])
@pytest.mark.parametrize("prios, order", [
    # One NaN key broke the heap invariant: the -2 popped sixth.
    ([5, _NAN, 3, 7000.5, 1, _NAN, -2, 9000.0], None),
    ([5, -_NAN, 3], None),
    # Nearest valid inputs keep the parent's order.
    ([5, _INF, 3, 7000.5, 1, -_INF, -2, 9000.0], [5, 6, 4, 2, 0, 3, 7, 1]),
    ([5, 4096.0, 3, 7000.5, True, 4095, -2, 9000.0], [6, 4, 2, 0, 5, 1, 3, 7]),
], ids=["nan", "neg-nan", "inf", "integral-float-bool"])
def test_nan_priority_rejected_neighbours_keep_order(name, prios, order):
    q = make_strategy(name)
    if order is None:
        with pytest.raises(ConfigurationError, match="priority"):
            for i, prio in enumerate(prios):
                q.push(i, prio)
        return
    for i, prio in enumerate(prios):
        q.push(i, prio)
    assert drain(q) == order


@pytest.mark.parametrize("name", [["prio"], {"prio": 1}, {"prio"}])
def test_make_strategy_rejects_unhashable_names(name):
    with pytest.raises(ConfigurationError, match="queueing strategy"):
        make_strategy(name)
    assert make_strategy("prio").name == "prio"
