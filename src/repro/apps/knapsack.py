"""0/1 knapsack by branch and bound (maximization).

The second speculative-search benchmark: same machinery as TSP (monotonic
bound, priority seeds, accumulators), but a *maximization* problem with a
fractional-relaxation upper bound, so it exercises the ``max`` direction of
the monotonic abstraction and much shallower, wider search trees.

Items are pre-sorted by value density; a node is (index, weight_used,
value_so_far).  Child priority is the negated upper bound, so best-first
search under the ``prio`` strategy expands the most promising node first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

__all__ = [
    "KnapsackInstance",
    "knapsack_seq",
    "KnapsackMain",
    "run_knapsack",
    "NODE_WORK",
]

NODE_WORK = 15.0


@dataclass(frozen=True)
class KnapsackInstance:
    """Items sorted by decreasing value/weight density."""

    weights: tuple
    values: tuple
    capacity: int

    @property
    def n(self) -> int:
        return len(self.weights)

    def __wire_size__(self) -> int:
        return 8 * self.n + 8

    @classmethod
    def random(
        cls, n: int, seed: int = 0, max_weight: int = 30, correlation: int = 10
    ) -> "KnapsackInstance":
        """Weakly correlated instances (the classically hard family)."""
        rng = RngStream(seed, "knapsack", n)
        items = []
        for _ in range(n):
            w = rng.randint(1, max_weight + 1)
            v = max(1, w + rng.randint(-correlation, correlation + 1))
            items.append((w, v))
        items.sort(key=lambda wv: wv[1] / wv[0], reverse=True)
        capacity = max(1, sum(w for w, _ in items) // 2)
        return cls(
            tuple(w for w, _ in items), tuple(v for _, v in items), capacity
        )


def _upper_bound(inst: KnapsackInstance, index: int, weight: int, value: int) -> float:
    """Fractional relaxation over the remaining (density-sorted) items."""
    room = inst.capacity - weight
    bound = float(value)
    for i in range(index, inst.n):
        w, v = inst.weights[i], inst.values[i]
        if w <= room:
            room -= w
            bound += v
        else:
            bound += v * (room / w)
            break
    return bound


def knapsack_seq(inst: KnapsackInstance) -> Tuple[int, int]:
    """Optimal value and nodes expanded (sequential depth-first B&B)."""
    best = [0]
    nodes = [0]

    def dfs(index: int, weight: int, value: int) -> None:
        nodes[0] += 1
        if value > best[0]:
            best[0] = value
        if index == inst.n:
            return
        if _upper_bound(inst, index, weight, value) <= best[0]:
            return
        w = inst.weights[index]
        if weight + w <= inst.capacity:
            dfs(index + 1, weight + w, value + inst.values[index])
        dfs(index + 1, weight, value)

    dfs(0, 0, 0)
    dfs = None  # break the function <-> cell cycle (see tsp._solve_subtree)
    return best[0], nodes[0]


class KnapsackNode(Chare):
    def __init__(self, index, weight, value):
        inst: KnapsackInstance = self.readonly("knapsack_instance")
        self.charge(NODE_WORK)
        self.accumulate("nodes", 1)
        if value > 0:
            self.update_monotonic("best", value)
            self.accumulate("best", value)
        if index == inst.n:
            return
        incumbent = self.read_monotonic("best")
        if _upper_bound(inst, index, weight, value) <= incumbent:
            return
        grain = self.readonly("knapsack_grain")
        if inst.n - index <= grain:
            sub_best, sub_nodes = self._solve_seq(inst, index, weight, value, incumbent)
            self.charge(NODE_WORK * sub_nodes)
            self.accumulate("nodes", sub_nodes)
            if sub_best > 0:
                self.update_monotonic("best", sub_best)
                self.accumulate("best", sub_best)
            return
        w = inst.weights[index]
        for take in (True, False):
            if take and weight + w > inst.capacity:
                continue
            nw = weight + w if take else weight
            nv = value + inst.values[index] if take else value
            ub = _upper_bound(inst, index + 1, nw, nv)
            if ub <= incumbent:
                continue
            # Negated bound: larger upper bounds run first under "prio".
            self.create(KnapsackNode, index + 1, nw, nv, priority=-int(ub))

    @staticmethod
    def _solve_seq(inst, index, weight, value, incumbent) -> Tuple[int, int]:
        best = [incumbent]
        nodes = [0]

        def dfs(i, wt, val):
            nodes[0] += 1
            if val > best[0]:
                best[0] = val
            if i == inst.n or _upper_bound(inst, i, wt, val) <= best[0]:
                return
            if wt + inst.weights[i] <= inst.capacity:
                dfs(i + 1, wt + inst.weights[i], val + inst.values[i])
            dfs(i + 1, wt, val)

        dfs(index, weight, value)
        dfs = None  # break the function <-> cell cycle (see tsp._solve_subtree)
        return best[0], nodes[0]


class KnapsackMain(Chare):
    def __init__(self, inst, grain, propagation):
        self.set_readonly("knapsack_instance", inst)
        self.set_readonly("knapsack_grain", grain)
        self.new_monotonic("best", 0, "max", propagation)
        self.new_accumulator("best", 0, "max")
        self.new_accumulator("nodes", 0, "sum")
        self._got = {}
        self.create(KnapsackNode, 0, 0, 0, priority=0)
        self.start_quiescence(self.thishandle, "quiet")

    @entry
    def quiet(self):
        for name in ("best", "nodes"):
            self.collect_accumulator(name, self.thishandle, "collected")

    @entry
    def collected(self, tag, value):
        self._got[tag.split(":")[1]] = value
        if len(self._got) == 2:
            self.exit((self._got["best"], self._got["nodes"]))


def run_knapsack(
    machine: Machine,
    inst: Optional[KnapsackInstance] = None,
    n: int = 24,
    *,
    instance_seed: int = 0,
    grain: int = 12,
    propagation: str = "eager",
    queueing: str = "prio",
    balancer: str = "random",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[Tuple[int, int], RunResult]:
    """Run parallel knapsack B&B; returns ``((best, nodes), RunResult)``."""
    if grain < 0:
        raise ConfigurationError(f"grain must be >= 0, got {grain}")
    if inst is None:
        inst = KnapsackInstance.random(n, instance_seed)
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(KnapsackMain, inst, grain, propagation)
    return result.result, result
