"""Pipelined dense LU factorization (no pivoting, row-block chares).

The dense-linear-algebra member of the suite, with a communication
pattern none of the other apps have: a **pipeline of broadcasts**.  Rows
are distributed in contiguous blocks, one chare per block; when row ``k``
becomes final (all pivots ``< k`` applied) its owner broadcasts it, and
every block eliminates below it.  Because row ``k+1`` becomes final the
moment its own block has applied pivot ``k`` — typically long before the
last block has — successive pivot broadcasts overlap: the pipeline.

Pivoting is omitted (as in many early message-driven LU demonstrations);
test matrices are made diagonally dominant so elimination is stable.
The parallel factorization is **bit-identical** to :func:`lu_seq`: every
row update ``row_i -= factor * pivot_row`` is one vectorized operation,
and each row applies pivots in ascending order in both versions.

Work model: ``UPDATE_WORK`` per matrix element touched in an elimination
step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine
from repro.util.rng import RngStream

__all__ = ["make_matrix", "lu_seq", "LuMain", "run_lu", "UPDATE_WORK"]

UPDATE_WORK = 1.0


def make_matrix(n: int, seed: int = 0) -> np.ndarray:
    """A well-conditioned (diagonally dominant) random matrix."""
    rng = RngStream(seed, "lu", n).generator
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a[np.arange(n), np.arange(n)] += n
    return a


def lu_seq(a: np.ndarray) -> np.ndarray:
    """In-place-style LU (Doolittle, no pivoting): returns combined LU.

    The unit-lower factors live below the diagonal, U on and above it.
    """
    lu = a.copy()
    n = lu.shape[0]
    for k in range(n - 1):
        pivot_row = lu[k, :].copy()
        for i in range(k + 1, n):
            factor = lu[i, k] / pivot_row[k]
            lu[i, k:] = lu[i, k:] - factor * pivot_row[k:]
            lu[i, k] = factor
    return lu


class LuBlock(Chare):
    """Owns rows [lo, hi); eliminates below each received pivot row."""

    def __init__(self, index, lo, hi, rows, main):
        self.index = index
        self.lo, self.hi = lo, hi
        self.rows = rows.copy()          # local slab, shape (hi-lo, n)
        self.main = main
        self.peers: List = []
        self._pivots: Dict[int, np.ndarray] = {}
        self.applied = -1                # highest pivot index applied
        self._done = False

    @entry
    def wire(self, peers):
        self.peers = list(peers)
        if self.lo == 0:
            self._emit_pivot(0)
        self._drain()

    @entry
    def pivot(self, k, row):
        self._pivots[k] = np.asarray(row)
        self._drain()

    def _emit_pivot(self, k):
        """Row k is final: broadcast it (and apply locally via the queue)."""
        row = self.rows[k - self.lo, :].copy()
        self.charge(UPDATE_WORK * len(row))
        for j, peer in enumerate(self.peers):
            if j != self.index:
                self.send(peer, "pivot", k, row)
        self._pivots[k] = row

    def _drain(self):
        if not self.peers:
            return
        n = self.rows.shape[1]
        while (self.applied + 1) in self._pivots:
            k = self.applied + 1
            pivot_row = self._pivots.pop(k)
            start = max(self.lo, k + 1)
            touched = 0
            for i in range(start, self.hi):
                r = i - self.lo
                factor = self.rows[r, k] / pivot_row[k]
                self.rows[r, k:] = self.rows[r, k:] - factor * pivot_row[k:]
                self.rows[r, k] = factor
                touched += n - k
            self.charge(UPDATE_WORK * touched)
            self.applied = k
            # Row k+1 becomes final as soon as pivot k is applied to it.
            nxt = k + 1
            if self.lo <= nxt < self.hi and nxt < n - 1:
                self._emit_pivot(nxt)
        self._maybe_finish()

    def _maybe_finish(self):
        n = self.rows.shape[1]
        # Rows in this block need every pivot k < hi-1 applied (the last
        # row of the matrix needs pivot n-2).
        needed = min(self.hi - 1, n - 1) - 1
        if not self._done and self.applied >= needed:
            self._done = True
            self.send(self.main, "block_done", self.lo, self.rows.copy())


class LuMain(Chare):
    def __init__(self, a, blocks):
        n = a.shape[0]
        if n % blocks:
            raise ValueError(f"{n} rows not divisible into {blocks} blocks")
        self.n = n
        self.lu = np.zeros_like(a)
        self.pending = blocks
        bs = n // blocks
        handles = [
            self.create(LuBlock, b, b * bs, (b + 1) * bs,
                        a[b * bs:(b + 1) * bs, :], self.thishandle,
                        pe=b % self.num_pes)
            for b in range(blocks)
        ]
        peers = tuple(handles)
        for h in handles:
            self.send(h, "wire", peers)

    @entry
    def block_done(self, lo, rows):
        self.lu[lo:lo + rows.shape[0], :] = rows
        self.pending -= 1
        if self.pending == 0:
            self.exit(self.lu)


def run_lu(
    machine: Machine,
    n: int = 48,
    blocks: int = 8,
    *,
    data_seed: int = 0,
    queueing: str = "fifo",
    balancer: str = "random",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[Tuple[np.ndarray, np.ndarray], RunResult]:
    """Run pipelined LU; returns ``((A, LU_combined), RunResult)``."""
    a = make_matrix(n, data_seed)
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(LuMain, a, blocks)
    return (a, result.result), result
