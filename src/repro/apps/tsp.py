"""Traveling-salesman by branch and bound.

The speculative-parallelism benchmark: the quality of the global *bound*
and the order the pool is searched decide how many nodes the computation
expands, so this app is the subject of both queueing-strategy experiment
T6 and monotonic-propagation experiment T7.

Structure:

* the distance matrix is a **read-only** variable (replicated at startup),
* the incumbent best tour cost is a **monotonic min** variable used to
  prune; its propagation mode is the T7 knob,
* the exact optimum is *also* tracked by a min-**accumulator**, so the
  answer is provably right even with propagation off,
* expanded-node counts go to a sum-accumulator (T6's measured quantity),
* child nodes are seeds carrying an integer priority = their lower bound,
  so the ``prio`` queueing strategy searches best-first.

The lower bound is the classic cheap one: cost so far + for every
unvisited city (and the current city) half the sum of its two cheapest
edges to other still-relevant cities, rounded down — admissible, and a
few probes per city into neighbour rows the instance sorts once; the same
bound is used by the sequential reference so node counts are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream

__all__ = ["TspInstance", "tsp_seq", "TspMain", "run_tsp", "NODE_WORK_PER_CITY"]

#: Work units per remaining-city when bounding/expanding one node.
NODE_WORK_PER_CITY = 6.0


@dataclass(frozen=True)
class TspInstance:
    """A symmetric TSP instance with integer distances."""

    dist: tuple  # tuple of tuples (hashable, message-friendly)

    def __post_init__(self) -> None:
        dist = self.dist
        n = len(dist)
        if n < 1 or any(len(row) != n for row in dist):
            raise ConfigurationError(
                "TspInstance.dist must be a non-empty square matrix (n >= 1)"
            )
        for i, row in enumerate(dist):
            if row[i] != 0:
                raise ConfigurationError(
                    f"TspInstance.dist must have a zero diagonal, "
                    f"got dist[{i}][{i}] = {row[i]}"
                )
            for j in range(i):
                if row[j] < 0 or row[j] != dist[j][i]:
                    raise ConfigurationError(
                        f"TspInstance.dist must be symmetric and non-negative, "
                        f"got dist[{i}][{j}] = {row[j]}, "
                        f"dist[{j}][{i}] = {dist[j][i]}"
                    )

    @property
    def n(self) -> int:
        return len(self.dist)

    @cached_property
    def neighbour_rows(self) -> tuple:
        """Per city, its ``(distance, other)`` pairs in ascending order.

        Sorted once per instance so neither the bound nor the depth-first
        child ordering sorts per node.  Not a dataclass field: equality,
        hashing and the wire size see ``dist`` only.
        """
        n = self.n
        return tuple(
            tuple(sorted((row[other], other) for other in range(n) if other != city))
            for city, row in enumerate(self.dist)
        )

    @cached_property
    def child_probes(self) -> dict:
        """Memo of :func:`_child_probe`, keyed by ``(interior, first)``.

        Every run starts its tours at city 0, so an instance sees at most
        2**(n-1) keys however many nodes share one visited set.  Not a
        dataclass field either, so two equal instances keep separate
        memos; it lives and dies with the instance.
        """
        return {}

    def __wire_size__(self) -> int:
        # Dense int32 distance matrix on the wire (init broadcast cost).
        return 4 * self.n * self.n

    @classmethod
    def random(cls, n: int, seed: int = 0, lo: int = 10, hi: int = 100) -> "TspInstance":
        if n < 1:
            raise ConfigurationError(f"TspInstance.random: n must be >= 1, got {n}")
        rng = RngStream(seed, "tsp", n)
        m = rng.generator.integers(lo, hi, size=(n, n))
        m = np.triu(m, 1)
        m = m + m.T
        return cls(tuple(tuple(int(x) for x in row) for row in m))


def _lower_bound(
    inst: TspInstance, interior: int, first: int, last: int, cost: int
) -> int:
    """Admissible bound: path cost + half-sum of two cheapest useful edges.

    ``interior`` is the bitmask of visited cities other than the two path
    ends; an edge is useful when neither end is interior.  A path end adds
    its cheapest useful edge, any other live city its cheapest two, read
    off the presorted neighbour rows.
    """
    est = 2 * cost
    for city, row in enumerate(inst.neighbour_rows):
        if interior >> city & 1:
            continue
        need = 1 if city == first or city == last else 2
        for d, other in row:
            if not interior >> other & 1:
                est += d
                need -= 1
                if not need:
                    break
    return est // 2


def _child_probe(inst: TspInstance, interior: int, first: int) -> Tuple[int, tuple]:
    """One pass of :func:`_lower_bound`'s probe for all children of a node.

    Every child of a node shares ``interior`` (the node's path minus its
    start) and differs only in which live city becomes the new path end.
    Returns ``(total, second)``: the sum of cheapest useful edges with
    ``first`` as the only path end, and per live city its second-cheapest
    useful edge (0 if it has none).  The child ending at ``city`` then has
    ``_lower_bound(inst, interior, first, city, c) ==
    (2 * c + total - second[city]) // 2``.
    """
    rows = inst.neighbour_rows
    total = 0
    second = [0] * len(rows)
    for city, row in enumerate(rows):
        if interior >> city & 1:
            continue
        need = 1 if city == first else 2
        for d, other in row:
            if not interior >> other & 1:
                total += d
                need -= 1
                if not need:
                    if city != first:
                        second[city] = d
                    break
    return total, tuple(second)


def _visited_mask(path: Tuple[int, ...]) -> int:
    """Bitmask with bit ``c`` set for every city ``c`` on ``path``."""
    visited = 0
    for city in path:
        visited |= 1 << city
    return visited


def tsp_seq(inst: TspInstance) -> Tuple[int, int]:
    """Best tour cost and nodes expanded (sequential depth-first B&B)."""
    greedy = _greedy_tour(inst)
    best, nodes = _solve_subtree(inst, (0,), 0, greedy)
    return (greedy if best is None else best), nodes


def _solve_subtree(
    inst: TspInstance, path: Tuple[int, ...], cost: int, incumbent: int
) -> Tuple[Optional[int], int]:
    """Depth-first B&B below ``path`` with a fixed starting incumbent.

    Returns ``(best_or_None, nodes_visited)``; ``None`` means nothing in
    this subtree beat the incumbent.
    """
    rows = inst.neighbour_rows
    first = path[0]
    first_bit = 1 << first
    home = inst.dist[first]
    best = incumbent
    found = False
    nodes = 0

    def dfs(visited: int, last: int, c: int, remaining: int) -> None:
        nonlocal best, found, nodes
        nodes += 1
        if not remaining:
            total = c + home[last]
            if total < best:
                best = total
                found = True
            return
        interior = visited & ~(first_bit | 1 << last)
        if _lower_bound(inst, interior, first, last, c) >= best:
            return
        # The row is presorted by (distance, city): nearest child first.
        for d, city in rows[last]:
            if not visited >> city & 1:
                dfs(visited | 1 << city, city, c + d, remaining - 1)

    dfs(_visited_mask(path), path[-1], cost, inst.n - len(path))
    # dfs closes over itself; unbind it or every call leaves a function <->
    # cell cycle (holding ``inst``) that only the collector can free.
    dfs = None
    return (best if found else None), nodes


def _greedy_tour(inst: TspInstance) -> int:
    """Nearest-neighbor tour cost — the initial incumbent."""
    n = inst.n
    city, cost, seen = 0, 0, {0}
    for _ in range(n - 1):
        d, nxt = min(
            (inst.dist[city][other], other) for other in range(n) if other not in seen
        )
        cost += d
        city = nxt
        seen.add(nxt)
    return cost + inst.dist[city][0]


class TspNode(Chare):
    """Expand one partial tour; prune against the monotonic bound."""

    def __init__(self, path, cost):
        inst: TspInstance = self.readonly("tsp_instance")
        grain = self.readonly("tsp_grain")
        n = inst.n
        depth = len(path)
        remaining = n - depth
        self.charge(NODE_WORK_PER_CITY * max(1, remaining + 1))
        self.accumulate("nodes", 1)
        first, last = path[0], path[-1]
        if not remaining:
            total = cost + inst.dist[last][first]
            self.update_monotonic("bound", total)
            self.accumulate("best", total)
            return
        # One read per node: an entry execution is atomic, so this PE's
        # view of the bound cannot change before the constructor returns.
        incumbent = self.read_monotonic("bound")
        # The parent already paid for this node's bound: it is the priority
        # the seed carried.  Only the root (priority 0) computes its own.
        if depth == 1:
            bound = _lower_bound(inst, 0, first, first, cost)
        else:
            bound = self.my_priority
        if bound >= incumbent:
            return
        if remaining <= grain:
            # Sequential tail: solve this subtree inside one chare.
            best, nodes = _solve_subtree(inst, path, cost, incumbent)
            self.charge(NODE_WORK_PER_CITY * (remaining + 1) * nodes)
            self.accumulate("nodes", nodes)
            if best is not None:
                self.update_monotonic("bound", best)
                self.accumulate("best", best)
            return
        visited = _visited_mask(path)
        # Nodes that visited the same cities share one probe: computed once
        # per visited set, however many paths through it the search opens.
        key = (visited & ~(1 << first), first)
        probe = inst.child_probes.get(key)
        if probe is None:
            probe = inst.child_probes[key] = _child_probe(inst, *key)
        total, second = probe
        row = inst.dist[last]
        for city in range(n):
            if visited >> city & 1:
                continue
            child_cost = cost + row[city]
            # == _lower_bound(inst, interior, first, city, child_cost): as a
            # path end the child gives up its second-cheapest edge.
            child_bound = (2 * child_cost + total - second[city]) // 2
            if child_bound >= incumbent:
                self.accumulate("pruned", 1)
                continue
            self.create(TspNode, path + (city,), child_cost, priority=child_bound)


class TspMain(Chare):
    def __init__(self, inst, propagation, grain, bound_slack):
        self.set_readonly("tsp_instance", inst)
        self.set_readonly("tsp_grain", grain)
        # bound_slack > 1 starts from a deliberately loose incumbent, so
        # pruning power comes from *discovered* tours travelling through the
        # monotonic variable — the T7 ablation's regime.
        incumbent = int(_greedy_tour(inst) * bound_slack)
        self.new_monotonic("bound", incumbent, "min", propagation)
        self.new_accumulator("best", incumbent, "min")
        self.new_accumulator("nodes", 0, "sum")
        self.new_accumulator("pruned", 0, "sum")
        self._got = {}
        self.create(TspNode, (0,), 0, priority=0)
        self.start_quiescence(self.thishandle, "quiet")

    @entry
    def quiet(self):
        for name in ("best", "nodes", "pruned"):
            self.collect_accumulator(name, self.thishandle, "collected")

    @entry
    def collected(self, tag, value):
        self._got[tag.split(":")[1]] = value
        if len(self._got) == 3:
            self.exit((self._got["best"], self._got["nodes"], self._got["pruned"]))


def run_tsp(
    machine: Machine,
    inst: Optional[TspInstance] = None,
    n: int = 9,
    *,
    instance_seed: int = 0,
    propagation: str = "eager",
    grain: int = 4,
    bound_slack: float = 1.0,
    queueing: str = "prio",
    balancer: str = "random",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[Tuple[int, int, int], RunResult]:
    """Run parallel TSP B&B.

    Returns ``((best_cost, nodes_expanded, children_pruned), RunResult)``.
    ``grain`` is the sequential-tail depth: subtrees with at most that many
    unvisited cities are solved inside one chare.  ``bound_slack`` scales
    the greedy starting incumbent and must be >= 1: the exact-answer
    accumulator is seeded with it, so anything below the optimum would be
    reported as the answer.
    """
    if not 1 <= bound_slack < math.inf:
        raise ConfigurationError(
            f"bound_slack must be finite and >= 1, got {bound_slack}"
        )
    if grain < 0:
        raise ConfigurationError(f"grain must be >= 0, got {grain}")
    if inst is None:
        inst = TspInstance.random(n, instance_seed)
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(TspMain, inst, propagation, grain, bound_slack)
    return result.result, result
