"""Kernel basics: running programs, handles, errors, exit plumbing."""

import pytest

from repro import BranchOfficeChare, Chare, Kernel, entry, make_machine
from repro.util.errors import (
    ConfigurationError,
    RoutingError,
    SchedulingError,
)


class Nop(Chare):
    def __init__(self):
        self.exit("done")


def test_run_returns_exit_result(ideal4):
    result = Kernel(ideal4).run(Nop)
    assert result.result == "done"
    assert not result.truncated
    assert result.events > 0


def test_kernel_single_use(ideal4):
    kernel = Kernel(ideal4)
    kernel.run(Nop)
    with pytest.raises(SchedulingError):
        kernel.run(Nop)


def test_main_must_be_chare(ideal4):
    class NotAChare:
        pass

    with pytest.raises(ConfigurationError):
        Kernel(ideal4).run(NotAChare)


def test_echo_program_all_workers_reply(ideal4, echo_runner):
    result = echo_runner(ideal4, n=12)
    assert [i for i, _ in result.result] == list(range(12))


def test_pinned_placement_respected(ideal4, echo_runner):
    result = echo_runner(ideal4, n=8, pin=True)
    assert result.result == [(i, i % 4) for i in range(8)]


def test_create_invalid_pe_raises(ideal4):
    class BadMain(Chare):
        def __init__(self):
            self.create(Nop, pe=99)

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(BadMain)


class _Branch(BranchOfficeChare):
    def __init__(self):
        pass

    @entry
    def ping(self, target):
        self.send(target, "finish")


@pytest.mark.parametrize("call", ["create", "send_branch"])
@pytest.mark.parametrize("pe", [1.5, True])
def test_non_integer_pe_is_a_configuration_error(call, pe):
    """A pe that is not an int fails at the call, naming ``pe``, rather
    than inside the topology's hop count (1.5) or as PE 1 (True)."""

    class BadMain(Chare):
        def __init__(self):
            if call == "create":
                self.create(Nop, pe=pe)
            else:
                self.send_branch(self.create_boc(_Branch), pe, "ping",
                                 self.thishandle)

    with pytest.raises(ConfigurationError, match="pe must be an integer"):
        Kernel(make_machine("ipsc2", 4)).run(BadMain)


def test_send_to_unknown_entry_raises(ideal4):
    class Child(Chare):
        def __init__(self):
            pass

    class BadMain(Chare):
        def __init__(self):
            h = self.create(Child, pe=0)
            self.send(h, "no_such_entry")

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(BadMain)


def test_unmarked_entry_rejected_when_strict(ideal4):
    class Child(Chare):
        def __init__(self):
            pass

        def not_an_entry(self):  # missing @entry
            pass

    class BadMain(Chare):
        def __init__(self):
            h = self.create(Child, pe=0)
            self.send(h, "not_an_entry")

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(BadMain)


def test_api_outside_execution_raises(ideal4):
    kernel = Kernel(ideal4)
    with pytest.raises(SchedulingError):
        kernel.api_charge(10)


class _SharingMain(Chare):
    def __init__(self):
        self.new_accumulator("acc")
        self.new_table("tbl")
        boc = self.create_boc(_Branch)
        self.send_branch(boc, 0, "ping", self.thishandle)

    @entry
    def finish(self):
        self.exit()


# Every Chare sharing or quiescence call that sends a message.
_MESSAGE_CALLS = {
    "collect_accumulator":
        lambda c, b: c.collect_accumulator("acc", c.thishandle, "finish"),
    "table_insert": lambda c, b: c.table_insert("tbl", 1, 2),
    "table_find": lambda c, b: c.table_find("tbl", 1, c.thishandle, "finish"),
    "table_delete": lambda c, b: c.table_delete("tbl", 1),
    "write_once": lambda c, b: c.write_once("w", 1),
    "contribute":
        lambda c, b: b.contribute("t", 1, "sum", c.thishandle, "finish"),
    "barrier": lambda c, b: b.barrier("t", "finish"),
    "start_quiescence": lambda c, b: c.start_quiescence(c.thishandle, "finish"),
}


@pytest.mark.parametrize("call", sorted(_MESSAGE_CALLS))
def test_sharing_call_outside_execution_raises(ideal4, call):
    res = Kernel(ideal4).run(_SharingMain)
    k = res.kernel
    main = k.chares[k.main_handle.gid]
    branch = k.sharing.branches[0][0]
    with pytest.raises(SchedulingError, match="outside an entry-method"):
        _MESSAGE_CALLS[call](main, branch)


@pytest.mark.parametrize("queueing", ["fifo", "prio", "bitprio"])
def test_my_priority_is_what_the_sender_passed(ideal4, queueing):
    seen = {}
    chares = []

    class Child(Chare):
        def __init__(self, tag, parent):
            seen[tag] = self.my_priority
            self.send(parent, "reply", tag + "-plain")
            self.send(parent, "reply", tag + "-vector", priority=(1, 0))

    class Main(Chare):
        def __init__(self):
            chares.append(self)
            seen["main"] = self.my_priority
            self.create(Child, "seed7", self.thishandle, priority=7)
            self.create(Child, "seed", self.thishandle)

        @entry
        def reply(self, tag):
            seen[tag] = self.my_priority
            if len(seen) == 7:
                self.exit()

    Kernel(ideal4, queueing=queueing).run(Main)
    assert seen == {
        "main": None, "seed7": 7, "seed": None,
        "seed7-plain": None, "seed7-vector": (1, 0),
        "seed-plain": None, "seed-vector": (1, 0),
    }
    with pytest.raises(SchedulingError, match="outside an entry-method"):
        chares[0].my_priority


class _Sink(Chare):
    def __init__(self):
        self.order = []

    @entry
    def go(self, tag):
        self.order.append(tag)
        if len(self.order) == 2:
            self.exit(self.order)


class _SendsListPriorities(Chare):
    """Sends ``a`` with priority [1, 1] and ``b`` with [1, 0], then maybe
    mutates ``a``'s list while both messages are in flight."""

    def __init__(self, mutate):
        self.sink = self.create(_Sink, pe=1)
        self.send(self.thishandle, "fire", mutate)

    @entry
    def fire(self, mutate):
        a = [1, 1]
        self.send(self.sink, "go", "a", priority=a)
        self.send(self.sink, "go", "b", priority=[1, 0])
        if mutate:
            a[:] = [0]


@pytest.mark.parametrize("mutate", [False, True], ids=["kept", "mutated"])
def test_list_priority_is_taken_when_it_is_sent(mutate):
    """The pool orders by the priorities as they were at the sends: ``b``
    ([1, 0]) before ``a`` ([1, 1]), whatever the sender does to its list
    afterwards (the mutated run used to deliver ``a`` first)."""
    kernel = Kernel(make_machine("ncube2", 2), queueing="bitprio")
    assert kernel.run(_SendsListPriorities, mutate).result == ["b", "a"]


def test_negative_charge_rejected(ideal4):
    class BadMain(Chare):
        def __init__(self):
            self.charge(-5)

    with pytest.raises(ConfigurationError):
        Kernel(ideal4).run(BadMain)


class _Charger(Chare):
    def __init__(self, units):
        self.charge(units)


class _ChargeMain(Chare):
    def __init__(self, units, where):
        if where == "main":
            self.charge(units)
            self.exit()
            return
        for pe in range(self.num_pes):
            self.create(_Charger, units, pe=pe)


@pytest.mark.parametrize("where", ["main", "workers"])
@pytest.mark.parametrize("units", [float("nan"), float("inf"), "5", True])
def test_bad_charge_rejected(units, where):
    """Four NaN-charging workers made the run's time nan (0.0 when the main
    constructor charged it), +inf made it inf, a string raised a bare
    TypeError and a bool charged one unit."""
    with pytest.raises(ConfigurationError, match="work_units"):
        Kernel(make_machine("ipsc2", 4)).run(_ChargeMain, units, where)


def test_create_boc_via_create_rejected(ideal4):
    from repro import BranchOfficeChare

    class SomeBoc(BranchOfficeChare):
        def __init__(self):
            pass

    class BadMain(Chare):
        def __init__(self):
            self.create(SomeBoc)

    with pytest.raises(ConfigurationError):
        Kernel(ideal4).run(BadMain)


def test_max_events_truncates(ideal4):
    class Forever(Chare):
        def __init__(self):
            self.send(self.thishandle, "again")

        @entry
        def again(self):
            self.send(self.thishandle, "again")

    result = Kernel(ideal4).run(Forever, max_events=500)
    assert result.truncated
    assert result.result is None


@pytest.mark.parametrize("bad", [2.5, "10", 0, -5, True])
def test_max_events_is_checked_at_the_call(ideal4, bad):
    kernel = Kernel(ideal4)
    with pytest.raises(ConfigurationError, match="max_events"):
        kernel.run(Nop, max_events=bad)
    assert kernel.engine.pending == 0
    assert kernel.run(Nop, max_events=None).result == "done"


def test_identity_properties(ideal4):
    seen = {}

    class Probe(Chare):
        def __init__(self):
            seen["pe"] = self.my_pe
            seen["num"] = self.num_pes
            seen["handle"] = self.thishandle
            seen["main"] = self.mainhandle
            seen["now"] = self.now
            self.exit(None)

    Kernel(ideal4).run(Probe)
    assert seen["pe"] == 0
    assert seen["num"] == 4
    assert seen["handle"] == seen["main"]
    assert seen["now"] == 0.0


def test_run_result_has_stats(ideal4, echo_runner):
    result = echo_runner(ideal4, n=4)
    stats = result.stats
    assert stats.num_pes == 4
    assert stats.total_msgs_executed >= 8  # 4 seeds + 4 replies
    assert stats.total_time == result.time
