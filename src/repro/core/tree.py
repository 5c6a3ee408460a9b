"""Spanning trees over PE ranks.

Broadcasts, reductions, and quiescence waves all run over a static spanning
tree rooted at rank 0.  Two shapes are provided:

* **rank tree** (:func:`tree_parent` / :func:`tree_children`) — a binary
  tree over rank numbers, oblivious to the physical topology.  A portable
  runtime implemented over ranks behaves like this: a tree edge may cost
  several network hops.
* **binomial tree** (:class:`BinomialTree`) — the classic hypercube
  spanning tree (parent = clear the lowest set bit), in which **every tree
  edge is exactly one physical hop** on a hypercube.  The A1 ablation
  measures what this buys.

:func:`make_tree` picks by name; ``"auto"`` selects binomial on hypercube
machines and the rank tree elsewhere.

A collective does not walk a tree directly but a :class:`Span`: the ranks it
runs over, in a tree of that many nodes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

__all__ = [
    "tree_parent",
    "tree_children",
    "subtree_size",
    "SpanningTree",
    "RankTree",
    "BinomialTree",
    "Span",
    "make_tree",
]

_ARITY = 2


def tree_parent(rank: int) -> Optional[int]:
    """Parent of ``rank`` in the binary rank tree, or None for the root."""
    if rank <= 0:
        return None
    return (rank - 1) // _ARITY


def tree_children(rank: int, num_pes: int) -> List[int]:
    """Children of ``rank`` among ``num_pes`` ranks."""
    lo = rank * _ARITY + 1
    return [c for c in range(lo, min(lo + _ARITY, num_pes))]


def subtree_size(rank: int, num_pes: int) -> int:
    """Number of ranks in the subtree rooted at ``rank`` (incl. itself)."""
    total = 0
    stack = [rank]
    while stack:
        r = stack.pop()
        if r < num_pes:
            total += 1
            stack.extend(tree_children(r, num_pes))
    return total


class SpanningTree:
    """A rooted spanning tree over ``num_pes`` ranks (root is rank 0)."""

    name = "abstract"

    def __init__(self, num_pes: int) -> None:
        self.num_pes = num_pes

    def parent(self, rank: int) -> Optional[int]:
        raise NotImplementedError

    def children(self, rank: int) -> List[int]:
        raise NotImplementedError


class RankTree(SpanningTree):
    """Binary tree over rank numbers (topology-oblivious)."""

    name = "rank"

    def parent(self, rank: int) -> Optional[int]:
        return tree_parent(rank)

    def children(self, rank: int) -> List[int]:
        return tree_children(rank, self.num_pes)


class BinomialTree(SpanningTree):
    """Binomial tree: parent clears the lowest set bit.

    On a hypercube every edge is one physical hop; works for any PE count
    (children beyond ``num_pes`` simply don't exist).
    """

    name = "binomial"

    def parent(self, rank: int) -> Optional[int]:
        if rank <= 0:
            return None
        return rank & (rank - 1)

    def children(self, rank: int) -> List[int]:
        out = []
        lowbit = rank & -rank if rank else 1 << (max(1, self.num_pes - 1)).bit_length()
        bit = 1
        while bit < lowbit and rank + bit < self.num_pes:
            out.append(rank + bit)
            bit <<= 1
        # Root (rank 0): all powers of two below num_pes.
        if rank == 0:
            out = []
            bit = 1
            while bit < self.num_pes:
                out.append(bit)
                bit <<= 1
        return out


class Span:
    """The ranks one collective runs over, and its tree shape over them.

    ``ranks`` is an index-sorted sequence of PE ranks and ``tree`` a
    spanning tree of ``len(ranks)`` nodes whose node *i* stands for
    ``ranks[i]``; ``children``/``parent`` take and return real ranks.  Over
    ``range(P)`` and the machine's own tree the mapping is the identity, so
    a collective over every rank and one over the touched ranks of a sparse
    machine are the same code.  ``ranks[0]`` is the root.
    """

    __slots__ = ("ranks", "tree")

    def __init__(self, ranks: Sequence[int], tree: SpanningTree) -> None:
        self.ranks = ranks
        self.tree = tree

    def __len__(self) -> int:
        return len(self.ranks)

    def __contains__(self, pe: int) -> bool:
        ranks = self.ranks
        i = bisect_left(ranks, pe)
        return i < len(ranks) and ranks[i] == pe

    def children(self, pe: int) -> List[int]:
        """Children of rank ``pe`` (a member) as a fresh list of ranks."""
        ranks = self.ranks
        return [ranks[c] for c in self.tree.children(bisect_left(ranks, pe))]

    def parent(self, pe: int) -> Optional[int]:
        ranks = self.ranks
        vparent = self.tree.parent(bisect_left(ranks, pe))
        return None if vparent is None else ranks[vparent]


def make_tree(name: str, num_pes: int, topology_name: str = "") -> SpanningTree:
    """Build a spanning tree; ``auto`` matches the tree to the topology."""
    if name == "auto":
        name = "binomial" if topology_name == "hypercube" else "rank"
    if name == "rank":
        return RankTree(num_pes)
    if name == "binomial":
        return BinomialTree(num_pes)
    from repro.util.errors import ConfigurationError

    raise ConfigurationError(
        f"unknown spanning tree {name!r}; options: rank, binomial, auto"
    )
