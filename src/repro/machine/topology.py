"""Interconnect topologies.

A topology answers two questions for the network model and the ACWN load
balancer: *how many hops between PE i and PE j* and *who are PE i's
neighbors*.  All topologies are static and deterministic.

Every machine preset is built on one of the first three:

* :class:`BusTopology` — shared-memory bus (Sequent Symmetry, Encore
  Multimax): every pair is one "hop" with no per-hop cost; "neighbors" is
  everyone (the balancer neighborhood on a bus machine is global).
* :class:`HypercubeTopology` — Intel iPSC/2, NCUBE/2: PE count must be a
  power of two, hops = popcount(i XOR j).
* :class:`FullyConnectedTopology` — idealised crossbar.

:class:`Mesh2DTopology` (a ledger probe's machine) is not used by any
preset.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from repro.util.errors import ConfigurationError, TopologyError, need_int

__all__ = [
    "Topology",
    "BusTopology",
    "FullyConnectedTopology",
    "Mesh2DTopology",
    "HypercubeTopology",
]


class Topology(ABC):
    """Abstract interconnect shape over ``num_pes`` processors."""

    name: str = "abstract"

    def __init__(self, num_pes: int) -> None:
        self.num_pes = _count("num_pes", num_pes)

    def _check(self, pe: int) -> None:
        if not 0 <= pe < self.num_pes:
            raise TopologyError(f"PE {pe} out of range [0, {self.num_pes})")

    @abstractmethod
    def distance(self, src: int, dst: int) -> int:
        """Hops from ``src`` to ``dst`` (0 if equal): the per-message
        metric, with no range checks.

        Arithmetic in every family (no per-pair table, which would be
        O(P²) at the roadmap's 10⁵-PE machines).  A bound method, so a
        machine holding it stays picklable for the parallel sweep.
        """

    @abstractmethod
    def neighbors(self, pe: int) -> List[int]:
        """Directly connected PEs (the ACWN neighborhood)."""

    @abstractmethod
    def diameter(self) -> int:
        """Largest hop distance over all pairs, in closed form (the ACWN
        and gradient balancers' default hop bound)."""

    def route(self, src: int, dst: int) -> Optional[List[Tuple[int, int]]]:
        """Deterministic path as directed links [(a,b), ...], or None.

        ``None`` means the topology has no discrete links to contend for
        (bus/crossbar); the link-contention model then does not apply.
        Implementations must return exactly ``distance(src, dst)`` links.
        """
        return None


class BusTopology(Topology):
    """Shared bus: uniform single-hop access, global neighborhood."""

    name = "bus"

    def distance(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def diameter(self) -> int:
        return 0 if self.num_pes == 1 else 1

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        return [p for p in range(self.num_pes) if p != pe]


class FullyConnectedTopology(BusTopology):
    """Crossbar: identical metric to a bus, kept distinct for reporting."""

    name = "full"


class Mesh2DTopology(Topology):
    """Open 2-D mesh of ``rows x cols`` PEs, row-major numbering."""

    name = "mesh2d"

    def __init__(self, num_pes: int, rows: int | None = None, cols: int | None = None) -> None:
        super().__init__(num_pes)
        num_pes = self.num_pes
        if rows is not None:
            rows = _count("rows", rows)
        if cols is not None:
            cols = _count("cols", cols)
        if rows is None and cols is None:
            rows = _near_square_rows(num_pes)
        if rows is None:
            assert cols is not None
            if num_pes % cols:
                raise TopologyError(f"{num_pes} PEs not divisible by cols={cols}")
            rows = num_pes // cols
        if cols is None:
            if num_pes % rows:
                raise TopologyError(f"{num_pes} PEs not divisible by rows={rows}")
            cols = num_pes // rows
        if rows * cols != num_pes:
            raise TopologyError(f"rows*cols={rows * cols} != num_pes={num_pes}")
        self.rows, self.cols = rows, cols

    def _rc(self, pe: int) -> Tuple[int, int]:
        return divmod(pe, self.cols)

    def distance(self, src: int, dst: int) -> int:
        cols = self.cols
        r1, c1 = divmod(src, cols)
        r2, c2 = divmod(dst, cols)
        return abs(r1 - r2) + abs(c1 - c2)

    def diameter(self) -> int:
        return (self.rows - 1) + (self.cols - 1)

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        r, c = self._rc(pe)
        out = []
        if r > 0:
            out.append(pe - self.cols)
        if r < self.rows - 1:
            out.append(pe + self.cols)
        if c > 0:
            out.append(pe - 1)
        if c < self.cols - 1:
            out.append(pe + 1)
        return out

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """XY (column-then-row) dimension-ordered routing."""
        self._check(src)
        self._check(dst)
        links = []
        r1, c1 = self._rc(src)
        r2, c2 = self._rc(dst)
        cur = src
        while c1 != c2:
            c1 += 1 if c2 > c1 else -1
            nxt = r1 * self.cols + c1
            links.append((cur, nxt))
            cur = nxt
        while r1 != r2:
            r1 += 1 if r2 > r1 else -1
            nxt = r1 * self.cols + c1
            links.append((cur, nxt))
            cur = nxt
        return links


class HypercubeTopology(Topology):
    """Boolean n-cube; ``num_pes`` must be a power of two."""

    name = "hypercube"

    def __init__(self, num_pes: int) -> None:
        super().__init__(num_pes)
        if num_pes & (num_pes - 1):
            raise TopologyError(f"hypercube needs power-of-two PEs, got {num_pes}")
        self.dimension = num_pes.bit_length() - 1

    def distance(self, src: int, dst: int) -> int:
        return (src ^ dst).bit_count()

    def diameter(self) -> int:
        return self.dimension if self.num_pes > 1 else 0

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        return [pe ^ (1 << d) for d in range(self.dimension)]

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-ordered (e-cube) routing: fix bits lowest-first."""
        self._check(src)
        self._check(dst)
        links = []
        cur = src
        diff = src ^ dst
        d = 0
        while diff:
            if diff & 1:
                nxt = cur ^ (1 << d)
                links.append((cur, nxt))
                cur = nxt
            diff >>= 1
            d += 1
        return links


def _count(name: str, value) -> int:
    """``value`` as an integer >= 1 (no bool, no float), or a
    :class:`TopologyError` naming it."""
    try:
        return need_int(name, value, 1)
    except ConfigurationError as exc:
        raise TopologyError(str(exc)) from None


def _near_square_rows(n: int) -> int:
    """Largest divisor of ``n`` not exceeding sqrt(n) — near-square meshes."""
    best = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            best = d
        d += 1
    return best

