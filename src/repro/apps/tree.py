"""Synthetic unbalanced tree search (UTS-flavored).

The dedicated load-balancing stressor for experiment T5: a tree whose
shape is determined by per-node deterministic pseudo-randomness (derived
from the node id, *not* from execution order, so every strategy and PE
count explores the identical tree).  Fanout is geometric-ish: a node at
depth ``d < max_depth`` has ``k`` children with probability decaying in
``d``, which concentrates unpredictable bursts of work — exactly the shape
that defeats static placement.

Each node charges ``node_work`` units; the program counts nodes via an
accumulator and terminates by quiescence.  The sequential reference walks
the same tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Tuple

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

__all__ = ["TreeParams", "tree_seq", "TreeMain", "run_tree"]


@dataclass(frozen=True)
class TreeParams:
    """Shape parameters of the synthetic tree."""

    seed: int = 0
    max_depth: int = 8
    max_fanout: int = 4
    branch_bias: float = 0.92   # probability mass pushed toward branching
    node_work: float = 150.0

    def __post_init__(self) -> None:
        for name in ("seed", "max_depth", "max_fanout"):
            if not isinstance(getattr(self, name), Integral):
                raise ConfigurationError(
                    f"TreeParams.{name} must be an integer, "
                    f"got {getattr(self, name)!r}")
        if self.max_depth < 0:
            raise ConfigurationError(
                f"TreeParams.max_depth must be >= 0, got {self.max_depth}")
        if self.max_fanout < 1:
            raise ConfigurationError(
                f"TreeParams.max_fanout must be >= 1, got {self.max_fanout}")
        if not 0.0 <= self.branch_bias <= 1.0:   # also rejects nan
            raise ConfigurationError(
                "TreeParams.branch_bias must be in [0, 1], "
                f"got {self.branch_bias}")
        if not (self.node_work >= 0 and math.isfinite(self.node_work)):
            raise ConfigurationError(
                "TreeParams.node_work must be finite and >= 0, "
                f"got {self.node_work}")

    def __wire_size__(self) -> int:
        return 32


# A pure function of its arguments, asked once per node by every run that
# explores the same tree (a sweep walks one tree dozens of times), so the
# BLAKE2b derivation is memoised.  The memo lives here, not on the params
# object, which is pickled into run descriptors and hashed into cache keys.
@lru_cache(maxsize=1 << 14)
def _fanout(params: TreeParams, node_id: int, depth: int) -> int:
    """Deterministic fanout of a node (independent of execution order)."""
    if depth >= params.max_depth:
        return 0
    h = derive_seed(params.seed, "tree-node", node_id, depth)
    u = (h % 10_000) / 10_000.0
    # Thin the tree as it deepens so total size stays finite but bursty.
    p_branch = params.branch_bias * (1.0 - depth / (params.max_depth + 1))
    if u > p_branch:
        return 0
    return 1 + (h >> 16) % params.max_fanout


def _child_id(node_id: int, index: int) -> int:
    return node_id * 7 + index + 1


def tree_seq(params: TreeParams) -> Tuple[int, int]:
    """Total nodes and leaves of the tree (ground truth + work baseline)."""
    nodes = leaves = 0
    stack = [(0, 0)]
    while stack:
        node_id, depth = stack.pop()
        nodes += 1
        k = _fanout(params, node_id, depth)
        if k == 0:
            leaves += 1
        for i in range(k):
            stack.append((_child_id(node_id, i), depth + 1))
    return nodes, leaves


class TreeNode(Chare):
    def __init__(self, node_id, depth):
        params: TreeParams = self.readonly("tree_params")
        self.charge(params.node_work)
        self.accumulate("nodes", 1)
        k = _fanout(params, node_id, depth)
        if k == 0:
            self.accumulate("leaves", 1)
            return
        for i in range(k):
            self.create(TreeNode, _child_id(node_id, i), depth + 1)


class TreeMain(Chare):
    def __init__(self, params):
        self.set_readonly("tree_params", params)
        self.new_accumulator("nodes", 0, "sum")
        self.new_accumulator("leaves", 0, "sum")
        self._got = {}
        self.create(TreeNode, 0, 0)
        self.start_quiescence(self.thishandle, "quiet")

    @entry
    def quiet(self):
        for name in ("nodes", "leaves"):
            self.collect_accumulator(name, self.thishandle, "collected")

    @entry
    def collected(self, tag, value):
        self._got[tag.split(":")[1]] = value
        if len(self._got) == 2:
            self.exit((self._got["nodes"], self._got["leaves"]))


def run_tree(
    machine: Machine,
    params: TreeParams | None = None,
    *,
    queueing: str = "fifo",
    balancer: str = "acwn",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[Tuple[int, int], RunResult]:
    """Run the synthetic tree; returns ``((nodes, leaves), RunResult)``."""
    if params is None:
        params = TreeParams()
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(TreeMain, params)
    return result.result, result
