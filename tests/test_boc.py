"""Branch-office chares: replication, branch messaging, reductions."""

import pytest

from repro import BranchOfficeChare, Chare, Kernel, entry, make_machine
from repro.core.handles import BocHandle
from repro.util.errors import RoutingError, SharingError


class CounterBoc(BranchOfficeChare):
    """Per-PE counter with a broadcast bump and a reduction collect."""

    def __init__(self, start):
        self.count = start

    @entry
    def bump(self, by):
        self.charge(5)
        self.count += by

    @entry
    def report(self, target):
        self.contribute("counts", self.count, "sum", target=target,
                        entry_name="collected")

    @entry
    def who(self, target):
        self.contribute("pes", (self.branch_pe_marker(),), _concat,
                        target=target, entry_name="collected")

    def branch_pe_marker(self):
        return self.my_pe


def _concat(a, b):
    return tuple(sorted(a + b))


class BocMain(Chare):
    def __init__(self, mode):
        self.boc = self.create_boc(CounterBoc, 10)
        if mode == "broadcast":
            self.broadcast_branches(self.boc, "bump", 1)
            self.broadcast_branches(self.boc, "report", self.thishandle)
        elif mode == "single":
            self.send_branch(self.boc, self.num_pes - 1, "bump", 5)
            self.broadcast_branches(self.boc, "report", self.thishandle)
        elif mode == "who":
            self.broadcast_branches(self.boc, "who", self.thishandle)

    @entry
    def collected(self, tag, value):
        self.exit(value)


@pytest.mark.parametrize("machine_name", ["ideal", "symmetry", "ipsc2"])
def test_broadcast_reaches_every_branch(machine_name):
    p = 8
    machine = make_machine(machine_name, p)
    result = Kernel(machine).run(BocMain, "broadcast")
    assert result.result == p * 11  # each branch 10 + 1


def test_send_branch_targets_one_pe(ideal4):
    result = Kernel(ideal4).run(BocMain, "single")
    assert result.result == 4 * 10 + 5


def test_reduction_with_custom_op(ipsc8):
    result = Kernel(ipsc8).run(BocMain, "who")
    assert result.result == tuple(range(8))


def test_reduction_min_max():
    class MinBoc(BranchOfficeChare):
        def __init__(self):
            pass

        @entry
        def go(self, target):
            self.contribute("m", self.my_pe * 10, "max", target=target,
                            entry_name="collected")

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(MinBoc)
            self.broadcast_branches(boc, "go", self.thishandle)

        @entry
        def collected(self, tag, value):
            self.exit(value)

    result = Kernel(make_machine("ideal", 6)).run(Main)
    assert result.result == 50


def test_local_branch_is_same_pe_object():
    class Probe(BranchOfficeChare):
        def __init__(self):
            self.touched = False

    class Main(Chare):
        def __init__(self):
            self.boc = self.create_boc(Probe)
            self.send(self.thishandle, "later")

        @entry
        def later(self):
            branch = self.local_branch(self.boc)
            assert branch.my_pe == self.my_pe == 0
            branch.touched = True
            self.exit(branch.touched)

    assert Kernel(make_machine("ideal", 4)).run(Main).result is True


def test_local_branch_before_construction_raises(ideal4):
    class Probe(BranchOfficeChare):
        def __init__(self):
            pass

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(Probe)
            # Constructed by a *message*; not yet present inside this ctor.
            self.local_branch(boc)

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


def test_contribute_requires_target(ideal4):
    class Probe(BranchOfficeChare):
        def __init__(self):
            pass

        @entry
        def go(self):
            self.contribute("t", 1, "sum")

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(Probe)
            self.send_branch(boc, 0, "go")

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


class _ContributesTwice(BranchOfficeChare):
    def __init__(self):
        pass

    @entry
    def go(self, target):
        self.contribute("t", 1, "sum", target, "done")
        self.contribute("t", 1, "sum", target, "done")


@pytest.mark.parametrize("P", [1, 4, 8])
def test_second_contribution_under_a_tag_raises(P):
    """A second contribution would fold into the total (3 at P=4, 4 at
    P=8) and the run would end "ok"; it raises instead."""

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(_ContributesTwice)
            self.broadcast_branches(boc, "go", self.thishandle)

        @entry
        def done(self, tag, total):
            self.exit(total)

    with pytest.raises(
        SharingError,
        match=r"branch of BocHandle\(0\) on PE \d+ contributed to 't' twice",
    ):
        Kernel(make_machine("ipsc2", P)).run(Main)


def test_messages_to_branches_before_construction_buffered():
    """send_branch racing ahead of the replication broadcast must be held."""

    class Probe(BranchOfficeChare):
        def __init__(self):
            self.ready = True

        @entry
        def poke(self, target):
            assert self.ready
            self.send(target, "done", self.my_pe)

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(Probe)
            # Race: branch creation travels down the tree; this message goes
            # point-to-point and can arrive first on far PEs.
            self.send_branch(boc, self.num_pes - 1, "poke", self.thishandle)

        @entry
        def done(self, pe):
            self.exit(pe)

    machine = make_machine("ipsc2", 16)
    assert Kernel(machine).run(Main).result == 15


def test_two_bocs_are_independent(ideal4):
    class A(BranchOfficeChare):
        def __init__(self):
            self.tag = "a"

    class B(BranchOfficeChare):
        def __init__(self):
            self.tag = "b"

    class Main(Chare):
        def __init__(self):
            self.a = self.create_boc(A)
            self.b = self.create_boc(B)
            self.send(self.thishandle, "later")

        @entry
        def later(self):
            assert self.local_branch(self.a).tag == "a"
            assert self.local_branch(self.b).tag == "b"
            self.exit(True)

    assert Kernel(ideal4).run(Main).result is True


def test_p1_boc_works():
    machine = make_machine("ideal", 1)
    result = Kernel(machine).run(BocMain, "broadcast")
    assert result.result == 11


@pytest.mark.parametrize("call", [
    lambda c: c.send_branch(BocHandle(7), 1, "ping"),
    lambda c: c.broadcast_branches(BocHandle(7), "ping"),
], ids=["send_branch", "broadcast_branches"])
def test_branch_call_to_unknown_boc_raises(ideal4, call):
    """BOC ids are allocated densely: a handle this kernel never created
    is rejected at the call, not parked until the run ends."""

    class Main(Chare):
        def __init__(self):
            call(self)

    with pytest.raises(RoutingError, match=r"unknown BOC BocHandle\(7\)"):
        Kernel(ideal4).run(Main)
