"""Naive Fibonacci: divide-and-conquer with response combining.

This is the "pure dynamic tree with responses" benchmark: unlike N-queens,
results flow *back up* the chare tree (each node waits for its two
children), so termination is structural and needs no quiescence detection.
It exercises chare-to-parent messaging, response counting, and the load
balancer's behavior on a binary tree whose two halves are very uneven
(fib(n-1) vs fib(n-2)).

``threshold`` is the grain knob: subproblems below it run sequentially.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine

__all__ = ["fib_seq", "FibMain", "run_fib", "CALL_WORK"]

#: Work units per recursive call in the sequential grain.
CALL_WORK = 4.0


def fib_seq(n: int) -> Tuple[int, int]:
    """Return ``(fib(n), calls)`` where calls counts recursion nodes."""
    if n < 0:
        raise ValueError(f"fib undefined for negative n={n}")
    if n < 2:
        return n, 1
    a, ca = fib_seq(n - 1)
    b, cb = fib_seq(n - 2)
    return a + b, ca + cb + 1


class FibNode(Chare):
    """Computes fib(n); replies to its parent's ``result`` entry.

    A node destroys itself once it has replied (the 1991 ``ChareExit``
    idiom), so a run holds only the nodes still waiting on children.
    """

    def __init__(self, n, parent):
        self.parent = parent
        self.pending = 2
        self.total = 0
        self.charge(CALL_WORK)
        if n < max(2, self._threshold()):  # n<2 is a base case at any grain
            value, calls = fib_seq(n)
            self.charge(CALL_WORK * max(0, calls - 1))
            self.send(parent, "result", value)
            self.destroy()
            return
        self.create(FibNode, n - 1, self.thishandle)
        self.create(FibNode, n - 2, self.thishandle)

    def _threshold(self) -> int:
        return self.readonly("fib_threshold")

    @entry
    def result(self, value):
        self.charge(CALL_WORK)
        self.total += value
        self.pending -= 1
        if self.pending == 0:
            self.send(self.parent, "result", self.total)
            self.destroy()


class FibMain(Chare):
    def __init__(self, n, threshold):
        self.set_readonly("fib_threshold", threshold)
        self.create(FibNode, n, self.thishandle)

    @entry
    def result(self, value):
        self.exit(value)


def run_fib(
    machine: Machine,
    n: int = 20,
    threshold: int = 10,
    *,
    queueing: str = "fifo",
    balancer: str = "random",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[int, RunResult]:
    """Run parallel fib; returns ``(fib(n), RunResult)``."""
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(FibMain, n, threshold)
    return result.result, result
