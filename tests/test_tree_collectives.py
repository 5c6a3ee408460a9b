"""The tree-collective layer (``core/services.py::TreeService``): one
fan-out, one fold and one span table under quiescence waves, accumulator
collects and BOC reductions.

The property tests drive the layer alone over drawn spans (every rank, or a
sorted subset of ranks, under both tree shapes) with messages delivered in
drawn orders; the end-to-end test holds a BOC reduction's total to the
Python fold of its contributions.
"""

import functools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import BranchOfficeChare, Chare, Kernel, entry, make_machine
from repro.core.services import TreeService
from repro.core.tree import BinomialTree, RankTree, Span


class _Kernel:
    """What the layer reads of a kernel: ``post`` and ``span()``."""

    def __init__(self, span):
        self.current_span = span
        self.posted = []

    def post(self, env):
        self.posted.append(env)

    def span(self):
        return self.current_span


class _Wave(TreeService):
    """A request down the span and a fold of one value per rank up it."""

    name = "wave"

    def __init__(self, values):
        super().__init__()
        self.values = values
        self.reached = []
        self.completions = []

    def handle(self, pe, op, args):
        span = self.spans[args[0]]
        if op == "req":
            self.reached.append(pe)
            self.fan_out(pe, span, "req", args)
            value = (self.values[pe], (pe,))
        else:
            value = args[1:]
        total = self.fold(args[:1], pe, value, span, _merge, "up")
        if total is not None:
            self.completions.append((pe, total))


def _merge(a, b):
    # The sum, and every contributing rank in arrival order.
    return (a[0] + b[0], a[1] + b[1])


@st.composite
def _spans(draw):
    P = draw(st.integers(1, 64))
    tree_cls = draw(st.sampled_from([RankTree, BinomialTree]))
    if draw(st.booleans()):
        ranks = range(P)
    else:
        ranks = sorted(draw(st.sets(st.integers(0, P - 1), min_size=1)))
    return Span(ranks, tree_cls(len(ranks)))


def _run(span, values, rng):
    """Start one collective at the span's root and deliver every message
    in an order drawn from ``rng``; returns the service afterwards."""
    kernel = _Kernel(span)
    svc = _Wave(values)
    svc.bind(kernel)
    key = 1
    svc.span_of(key)
    svc.handle(span.ranks[0], "req", (key,))
    while kernel.posted:
        env = kernel.posted.pop(rng.randrange(len(kernel.posted)))
        assert env.service == "wave" and env.src_pe != env.dst_pe
        svc.handle(env.dst_pe, env.entry, env.args)
    return svc


@settings(max_examples=150, deadline=None)
@given(span=_spans(), seed=st.integers(0, 2**32 - 1))
def test_fan_out_reaches_every_rank_once(span, seed):
    values = {pe: 0 for pe in span.ranks}
    svc = _run(span, values, random.Random(seed))
    assert sorted(svc.reached) == list(span.ranks)


@settings(max_examples=150, deadline=None)
@given(span=_spans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_fold_completes_once_at_the_root_with_every_contribution(
        span, seed, data):
    values = {pe: data.draw(st.integers(-1000, 1000)) for pe in span.ranks}
    svc = _run(span, values, random.Random(seed))
    assert len(svc.completions) == 1
    root, (total, contributors) = svc.completions[0]
    assert root == span.ranks[0]
    assert total == sum(values.values())
    assert sorted(contributors) == list(span.ranks)
    assert svc.partials == {}


@settings(max_examples=50, deadline=None)
@given(span=_spans(), other=_spans())
def test_span_of_keeps_the_span_taken_at_first_use(span, other):
    kernel = _Kernel(span)
    svc = _Wave({})
    svc.bind(kernel)
    assert svc.span_of("k") is span
    kernel.current_span = other
    assert svc.span_of("k") is span
    assert svc.span_of("j") is other


def test_up_message_carries_the_key_and_the_total():
    """A complete non-root partial goes up as ``up(*key, *total)``."""
    span = Span(range(3), RankTree(3))
    kernel = _Kernel(span)
    svc = _Wave({})
    svc.bind(kernel)
    assert svc.fold(("k", 7), 1, (5, (1,)), span, _merge, "up", True) is None
    (env,) = kernel.posted
    assert (env.src_pe, env.dst_pe, env.entry, env.args, env.counted) == (
        1, 0, "up", ("k", 7, 5, (1,)), True)
    assert svc.partials == {}


# ------------------------------------------------------------- end to end
class _Contributor(BranchOfficeChare):
    def __init__(self):
        pass

    @entry
    def go(self, target):
        self.contribute("sum", _value(self.my_pe), "sum", target, "got")
        self.contribute("pes", (self.my_pe,), operator.add, target, "got")


class _Toucher(Chare):
    def __init__(self, parent):
        self.send(parent, "touched")


class _ReduceMain(Chare):
    """Touch ``ranks``, then create the BOC and collect both reductions."""

    def __init__(self, ranks):
        self.totals = {}
        self.pending = len(ranks)
        for pe in ranks:
            self.create(_Toucher, self.thishandle, pe=pe)
        if not ranks:
            self._reduce()

    @entry
    def touched(self):
        self.pending -= 1
        if self.pending == 0:
            self._reduce()

    def _reduce(self):
        boc = self.create_boc(_Contributor)
        self.broadcast_branches(boc, "go", self.thishandle)

    @entry
    def got(self, tag, value):
        self.totals[tag] = value
        if len(self.totals) == 2:
            self.exit(self.totals)


def _value(pe):
    return (pe * 7919) % 101 - 50


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("tree", ["rank", "binomial"])
@pytest.mark.parametrize("P", [1, 3, 8, 16])
def test_boc_reduction_equals_the_fold_of_its_contributions(P, tree, sparse):
    # Sparse: the BOC spans PE 0 and the ranks touched before it is made.
    ranks = list(range(2, P, 3)) if sparse else []
    kernel = Kernel(make_machine("cluster", P, sparse=sparse),
                    spanning_tree=tree)
    result = kernel.run(_ReduceMain, ranks)
    branches = sorted(kernel.sharing.branches[0])
    assert branches == (sorted({0, *ranks}) if sparse else list(range(P)))
    got = result.result
    assert got["sum"] == functools.reduce(
        operator.add, [_value(pe) for pe in branches])
    assert sorted(got["pes"]) == branches
    assert kernel.sharing.partials == {}
