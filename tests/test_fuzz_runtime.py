"""Runtime fuzzing: random chare programs, checked for invariants.

A deterministic generator builds a random program shape from a seed — a
tree of chares with random fanouts, work sizes, priorities, pinned or
balanced placement, accumulator updates and parent replies — and the test
asserts, across machines/strategies/seeds:

* the answer (a pure function of the shape) is schedule-independent,
* every counted message is processed (nothing lost or duplicated),
* quiescence detection fires exactly once, after all app work.

This is the closest thing to an adversarial workload for the scheduler,
balancer, and QD machinery working together.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Chare, Kernel, entry, make_machine
from repro.util.rng import derive_seed


def _shape(shape_seed: int, node_id: int, depth: int):
    """Deterministic per-node shape: (fanout, work, use_priority, pin)."""
    h = derive_seed(shape_seed, "fuzz", node_id, depth)
    max_depth = 4
    fanout = (h % 4) if depth < max_depth else 0
    work = 10 + (h >> 8) % 200
    use_priority = bool((h >> 16) & 1)
    pin = (h >> 20) % 3 == 0
    return fanout, work, use_priority, pin


class FuzzNode(Chare):
    def __init__(self, shape_seed, node_id, depth):
        fanout, work, use_priority, pin = _shape(shape_seed, node_id, depth)
        self.charge(work)
        self.accumulate("sum", node_id % 97)
        self.accumulate("count", 1)
        for i in range(fanout):
            child_id = node_id * 5 + i + 1
            kwargs = {}
            if use_priority:
                kwargs["priority"] = child_id % 13
            if pin:
                kwargs["pe"] = child_id % self.num_pes
            self.create(FuzzNode, shape_seed, child_id, depth + 1, **kwargs)


class FuzzMain(Chare):
    def __init__(self, shape_seed):
        self.new_accumulator("sum", 0, "sum")
        self.new_accumulator("count", 0, "sum")
        self._got = {}
        self.create(FuzzNode, shape_seed, 0, 0)
        self.start_quiescence(self.thishandle, "quiet")

    @entry
    def quiet(self):
        for name in ("sum", "count"):
            self.collect_accumulator(name, self.thishandle, "collected")

    @entry
    def collected(self, tag, value):
        self._got[tag.split(":")[1]] = value
        if len(self._got) == 2:
            self.exit((self._got["count"], self._got["sum"]))


def _expected(shape_seed: int):
    """Walk the same shape sequentially."""
    count = total = 0
    stack = [(0, 0)]
    while stack:
        node_id, depth = stack.pop()
        count += 1
        total += node_id % 97
        fanout, _, _, _ = _shape(shape_seed, node_id, depth)
        for i in range(fanout):
            stack.append((node_id * 5 + i + 1, depth + 1))
    return count, total


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shape_seed=st.integers(min_value=0, max_value=10_000))
def test_fuzz_answer_matches_shape(shape_seed):
    result = Kernel(make_machine("ipsc2", 8), seed=1).run(FuzzMain, shape_seed)
    assert result.result == _expected(shape_seed)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    shape_seed=st.integers(min_value=0, max_value=10_000),
    kernel_seed=st.integers(min_value=0, max_value=5),
    queueing=st.sampled_from(["fifo", "lifo", "prio"]),
    balancer=st.sampled_from(["random", "acwn", "token", "central"]),
    pes=st.sampled_from([1, 4, 8]),
)
def test_fuzz_schedule_independence(shape_seed, kernel_seed, queueing,
                                    balancer, pes):
    kernel = Kernel(
        make_machine("ipsc2", pes), seed=kernel_seed,
        queueing=queueing, balancer=balancer,
    )
    result = kernel.run(FuzzMain, shape_seed)
    assert result.result == _expected(shape_seed)
    assert result.stats.counted_sent == result.stats.counted_processed
    assert kernel.qd.detected_at is not None
    assert kernel.qd.detected_at >= kernel.qd.work_end_at_detection


@pytest.mark.parametrize("machine_name", ["ideal", "symmetry", "ncube2"])
def test_fuzz_across_machines(machine_name):
    for shape_seed in (3, 77, 4242):
        result = Kernel(make_machine(machine_name, 4), seed=0).run(
            FuzzMain, shape_seed
        )
        assert result.result == _expected(shape_seed)
