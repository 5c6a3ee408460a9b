"""Interconnect topologies.

A topology answers two questions for the network model and the ACWN load
balancer: *how many hops between PE i and PE j* and *who are PE i's
neighbors*.  All topologies are static and deterministic.

Implemented families (the 1991 machines plus standard extras):

* :class:`BusTopology` — shared-memory bus (Sequent Symmetry, Encore
  Multimax): every pair is one "hop" with no per-hop cost; "neighbors" is
  everyone (the balancer neighborhood on a bus machine is global).
* :class:`HypercubeTopology` — Intel iPSC/2, NCUBE/2: PE count must be a
  power of two, hops = popcount(i XOR j).
* :class:`FullyConnectedTopology` — idealised crossbar.
* :class:`RingTopology`, :class:`Mesh2DTopology`, :class:`Torus2DTopology`,
  :class:`TreeTopology` — standard shapes used by the load-balancing and
  scalability studies.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from repro.util.errors import TopologyError

__all__ = [
    "Topology",
    "BusTopology",
    "FullyConnectedTopology",
    "RingTopology",
    "Mesh2DTopology",
    "Torus2DTopology",
    "HypercubeTopology",
    "TreeTopology",
    "make_topology",
]


class Topology(ABC):
    """Abstract interconnect shape over ``num_pes`` processors."""

    name: str = "abstract"

    def __init__(self, num_pes: int) -> None:
        try:
            # Not int(): 2.5 must not truncate to 2 PEs, nor "4" parse.
            num_pes = operator.index(num_pes)
        except TypeError:
            raise TopologyError(
                f"num_pes must be an integer, got {num_pes!r}"
            ) from None
        if num_pes < 1:
            raise TopologyError(f"num_pes must be >= 1, got {num_pes}")
        self.num_pes = num_pes

    def _check(self, pe: int) -> None:
        if not 0 <= pe < self.num_pes:
            raise TopologyError(f"PE {pe} out of range [0, {self.num_pes})")

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Number of network hops from ``src`` to ``dst`` (0 if equal)."""

    @abstractmethod
    def neighbors(self, pe: int) -> List[int]:
        """Directly connected PEs (the ACWN neighborhood)."""

    def route(self, src: int, dst: int) -> Optional[List[Tuple[int, int]]]:
        """Deterministic path as directed links [(a,b), ...], or None.

        ``None`` means the topology has no discrete links to contend for
        (bus/crossbar); the link-contention model then does not apply.
        Implementations must return exactly ``hops(src, dst)`` links.
        """
        return None

    def closed_form_hops(self) -> Optional[Callable[[int, int], int]]:
        """An O(1) *unchecked* hops function, or None.

        When a family's metric reduces to arithmetic (popcount, coordinate
        distance), this returns a bound method computing it with no range
        checks and no memo table — the per-pair dict the cost model would
        otherwise build is O(P²) and unusable at the roadmap's 10⁵-PE
        machines.  A bound method (not a lambda/closure) so machines that
        hold it stay picklable for the parallel sweep executor.  ``None``
        means the metric genuinely needs a walk (trees); callers keep the
        memoized table for those.
        """
        return None

    def diameter(self) -> int:
        """Maximum hop distance over all pairs.

        Base implementation is the O(P²) brute-force scan; every concrete
        family overrides it with a closed form (tested equivalent at small
        P) so it stays usable at P=100k.
        """
        return max(
            self.hops(i, j) for i in range(self.num_pes) for j in range(self.num_pes)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_pes={self.num_pes})"


class BusTopology(Topology):
    """Shared bus: uniform single-hop access, global neighborhood."""

    name = "bus"

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return 0 if src == dst else 1

    def _cf_hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def closed_form_hops(self) -> Callable[[int, int], int]:
        return self._cf_hops

    def diameter(self) -> int:
        return 0 if self.num_pes == 1 else 1

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        return [p for p in range(self.num_pes) if p != pe]


class FullyConnectedTopology(BusTopology):
    """Crossbar: identical metric to a bus, kept distinct for reporting."""

    name = "full"


class RingTopology(Topology):
    """Bidirectional ring."""

    name = "ring"

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Shortest-direction walk around the ring."""
        self._check(src)
        self._check(dst)
        n = self.num_pes
        forward = (dst - src) % n
        step = 1 if forward <= n - forward else -1
        links = []
        cur = src
        while cur != dst:
            nxt = (cur + step) % n
            links.append((cur, nxt))
            cur = nxt
        return links

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        d = abs(src - dst)
        return min(d, self.num_pes - d)

    def _cf_hops(self, src: int, dst: int) -> int:
        d = abs(src - dst)
        return min(d, self.num_pes - d)

    def closed_form_hops(self) -> Callable[[int, int], int]:
        return self._cf_hops

    def diameter(self) -> int:
        return self.num_pes // 2

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        if self.num_pes == 1:
            return []
        left = (pe - 1) % self.num_pes
        right = (pe + 1) % self.num_pes
        return [left] if left == right else [left, right]


class Mesh2DTopology(Topology):
    """Open 2-D mesh of ``rows x cols`` PEs, row-major numbering."""

    name = "mesh2d"

    def __init__(self, num_pes: int, rows: int | None = None, cols: int | None = None) -> None:
        super().__init__(num_pes)
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

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        r1, c1 = self._rc(src)
        r2, c2 = self._rc(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def _cf_hops(self, src: int, dst: int) -> int:
        cols = self.cols
        r1, c1 = divmod(src, cols)
        r2, c2 = divmod(dst, cols)
        return abs(r1 - r2) + abs(c1 - c2)

    def closed_form_hops(self) -> Callable[[int, int], int]:
        return self._cf_hops

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


class Torus2DTopology(Mesh2DTopology):
    """2-D torus: mesh with wraparound links."""

    name = "torus2d"

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        r1, c1 = self._rc(src)
        r2, c2 = self._rc(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    def _cf_hops(self, src: int, dst: int) -> int:
        cols = self.cols
        r1, c1 = divmod(src, cols)
        r2, c2 = divmod(dst, cols)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, cols - dc)

    def diameter(self) -> int:
        return self.rows // 2 + self.cols // 2

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        r, c = self._rc(pe)
        cand = {
            ((r - 1) % self.rows) * self.cols + c,
            ((r + 1) % self.rows) * self.cols + c,
            r * self.cols + (c - 1) % self.cols,
            r * self.cols + (c + 1) % self.cols,
        }
        cand.discard(pe)
        return sorted(cand)

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """XY routing with wraparound, shortest direction per axis."""
        self._check(src)
        self._check(dst)

        def step_toward(cur: int, target: int, size: int) -> int:
            fwd = (target - cur) % size
            return 1 if fwd <= size - fwd else -1

        links = []
        r1, c1 = self._rc(src)
        r2, c2 = self._rc(dst)
        cur = src
        while c1 != c2:
            c1 = (c1 + step_toward(c1, c2, self.cols)) % self.cols
            nxt = r1 * self.cols + c1
            links.append((cur, nxt))
            cur = nxt
        while r1 != r2:
            r1 = (r1 + step_toward(r1, r2, self.rows)) % self.rows
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

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return (src ^ dst).bit_count()

    def _cf_hops(self, src: int, dst: int) -> int:
        return (src ^ dst).bit_count()

    def closed_form_hops(self) -> Callable[[int, int], int]:
        return self._cf_hops

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


class TreeTopology(Topology):
    """Complete k-ary tree numbered level-order (PE 0 is the root)."""

    name = "tree"

    def __init__(self, num_pes: int, arity: int = 2) -> None:
        super().__init__(num_pes)
        if arity < 2:
            raise TopologyError(f"tree arity must be >= 2, got {arity}")
        self.arity = arity

    def parent(self, pe: int) -> int | None:
        self._check(pe)
        return None if pe == 0 else (pe - 1) // self.arity

    def children(self, pe: int) -> List[int]:
        self._check(pe)
        lo = pe * self.arity + 1
        return [c for c in range(lo, lo + self.arity) if c < self.num_pes]

    def _path_to_root(self, pe: int) -> List[int]:
        path = [pe]
        while pe != 0:
            pe = (pe - 1) // self.arity
            path.append(pe)
        return path

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        a = self._path_to_root(src)
        b = set(self._path_to_root(dst))
        # Depth of lowest common ancestor via first shared node on src's path.
        for i, node in enumerate(a):
            if node in b:
                bpath = self._path_to_root(dst)
                return i + bpath.index(node)
        raise TopologyError("disconnected tree (unreachable)")  # pragma: no cover

    def neighbors(self, pe: int) -> List[int]:
        self._check(pe)
        out = self.children(pe)
        p = self.parent(pe)
        if p is not None:
            out.append(p)
        return sorted(out)

    def diameter(self) -> int:
        """O(log n) closed form.

        Level-order numbering fills each level left to right, so the last
        node ``n-1`` is a deepest node (depth D).  The diameter pairs a
        depth-D node with the deepest node in a *different* root subtree:
        2D when depth D reaches past the root's first subtree (some
        depth-D node lives under child 2), else 2D-1 (the other subtrees
        stop at depth D-1, which is fully populated whenever depth D
        exists beyond n=1).
        """
        n = self.num_pes
        if n == 1:
            return 0
        if n == 2:
            return 1
        depth = 0
        node = n - 1
        while node != 0:
            node = (node - 1) // self.arity
            depth += 1
        # Leftmost descendant of root child 2 at depth ``depth``.
        node = 2
        for _ in range(depth - 1):
            node = node * self.arity + 1
        return 2 * depth if node < n else 2 * depth - 1

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Up to the lowest common ancestor, then down."""
        self._check(src)
        self._check(dst)
        up = self._path_to_root(src)
        down = self._path_to_root(dst)
        common = set(up) & set(down)
        links = []
        cur = src
        while cur not in common:
            parent = self.parent(cur)
            links.append((cur, parent))
            cur = parent
        lca = cur
        descent = []
        cur = dst
        while cur != lca:
            descent.append((self.parent(cur), cur))
            cur = self.parent(cur)
        links.extend(reversed(descent))
        return links


def _near_square_rows(n: int) -> int:
    """Largest divisor of ``n`` not exceeding sqrt(n) — near-square meshes."""
    best = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            best = d
        d += 1
    return best


_FACTORIES: Dict[str, type] = {
    "bus": BusTopology,
    "full": FullyConnectedTopology,
    "ring": RingTopology,
    "mesh2d": Mesh2DTopology,
    "torus2d": Torus2DTopology,
    "hypercube": HypercubeTopology,
    "tree": TreeTopology,
}


def make_topology(name: str, num_pes: int, **kwargs) -> Topology:
    """Construct a topology by name (``bus``, ``hypercube``, ...)."""
    try:
        cls = _FACTORIES[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; options: {sorted(_FACTORIES)}"
        ) from None
    return cls(num_pes, **kwargs)
