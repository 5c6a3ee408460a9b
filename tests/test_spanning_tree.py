"""Spanning-tree shapes: rank binary tree vs hypercube binomial tree, and
the :class:`Span` that maps either onto the ranks a collective runs over."""

from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

from repro import Chare, Kernel, entry, make_machine
from repro.core.tree import BinomialTree, RankTree, Span, make_tree
from repro.util.errors import ConfigurationError


@pytest.mark.parametrize("cls", [RankTree, BinomialTree])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 23, 64])
def test_tree_is_a_tree(cls, n):
    tree = cls(n)
    # Every non-root has exactly one parent; parent/children are inverse.
    seen = {0}
    frontier = [0]
    while frontier:
        r = frontier.pop()
        for c in tree.children(r):
            assert tree.parent(c) == r
            assert c not in seen, "cycle or double-parent"
            assert 0 <= c < n
            seen.add(c)
            frontier.append(c)
    assert seen == set(range(n)), f"{cls.__name__} does not span {n} ranks"
    assert tree.parent(0) is None


def test_binomial_edges_are_one_hop_on_hypercube():
    from repro.machine.topology import HypercubeTopology

    n = 32
    topo = HypercubeTopology(n)
    tree = BinomialTree(n)
    for r in range(1, n):
        assert topo.hops(r, tree.parent(r)) == 1


def test_rank_tree_edges_cost_multiple_hops_on_hypercube():
    from repro.machine.topology import HypercubeTopology

    n = 32
    topo = HypercubeTopology(n)
    tree = RankTree(n)
    costs = [topo.hops(r, tree.parent(r)) for r in range(1, n)]
    assert max(costs) > 1  # the thing the binomial tree fixes


def test_make_tree_auto_picks_by_topology():
    assert make_tree("auto", 8, "hypercube").name == "binomial"
    assert make_tree("auto", 8, "bus").name == "rank"
    assert make_tree("rank", 8, "hypercube").name == "rank"
    with pytest.raises(ConfigurationError):
        make_tree("fractal", 8)


@given(st.integers(min_value=1, max_value=200))
def test_property_binomial_spans_any_n(n):
    tree = BinomialTree(n)
    count = 0
    stack = [0]
    while stack:
        r = stack.pop()
        count += 1
        stack.extend(tree.children(r))
    assert count == n


class _BocCount(Chare):
    pass


def test_kernel_runs_with_each_tree():
    from tests.conftest import run_echo

    for tree_name in ("rank", "binomial", "auto"):
        machine = make_machine("ipsc2", 16)
        result = run_echo(machine, n=16, seed=1, spanning_tree=tree_name)
        assert [i for i, _ in result.result] == list(range(16))


def test_binomial_collectives_cut_network_load():
    """The A1 claim at test scale: on a hypercube the binomial tree's edges
    are all single physical hops, so collective traffic occupies far fewer
    links.  (Completion *time* can tie: both trees have an all-1-hop
    critical chain; the win is hop-weighted load.)"""

    class Main(Chare):
        def __init__(self):
            self.new_accumulator("acc", 0, "sum")
            self.accumulate("acc", 1)
            self.collect_accumulator("acc", self.thishandle, "got")

        @entry
        def got(self, tag, total):
            self.exit(self.now)

    hops = {}
    times = {}
    for tree_name in ("rank", "binomial"):
        machine = make_machine("ipsc2", 64)
        result = Kernel(machine, spanning_tree=tree_name).run(Main)
        hops[tree_name] = result.stats.total_message_hops
        times[tree_name] = result.result
    assert hops["binomial"] < hops["rank"]
    assert times["binomial"] <= times["rank"] + 1e-12


# ------------------------------------------------------------------------ Span
@pytest.mark.parametrize("cls", [RankTree, BinomialTree])
def test_span_over_every_rank_is_the_tree_itself(cls):
    """The dense case: over ``range(P)`` the rank mapping is the identity."""
    for n in range(1, 71):
        tree = cls(n)
        span = Span(range(n), tree)
        assert len(span) == n and -1 not in span and n not in span
        for pe in range(n):
            assert pe in span
            assert span.children(pe) == tree.children(pe)
            assert span.parent(pe) == tree.parent(pe)


def _mapped(ranks, tree, pe):
    """(children, parent) as the collectives spelled them before Span."""
    vrank = bisect_left(ranks, pe)
    vparent = tree.parent(vrank)
    return ([ranks[c] for c in tree.children(vrank)],
            None if vparent is None else ranks[vparent])


@given(st.sampled_from([RankTree, BinomialTree]),
       st.sets(st.integers(0, 100_000), min_size=1, max_size=60))
def test_property_span_over_a_rank_subset(cls, members):
    ranks = sorted(members)
    tree = cls(len(ranks))
    span = Span(ranks, tree)
    assert len(span) == len(ranks)
    assert ranks[0] - 1 not in span and ranks[-1] + 1 not in span
    reached = {ranks[0]}
    frontier = [ranks[0]]
    while frontier:
        pe = frontier.pop()
        assert pe in span
        assert (span.children(pe), span.parent(pe)) == _mapped(ranks, tree, pe)
        for child in span.children(pe):
            assert span.parent(child) == pe
            assert child not in reached, "cycle or double-parent"
            reached.add(child)
            frontier.append(child)
    assert reached == members and span.parent(ranks[0]) is None
