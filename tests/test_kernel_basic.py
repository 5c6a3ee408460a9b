"""Kernel basics: running programs, handles, errors, exit plumbing."""

import pytest

from repro import Chare, Kernel, entry, make_machine
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


def test_unmarked_entry_allowed_when_lenient():
    class Child(Chare):
        def __init__(self, main):
            self.main = main

        def not_an_entry(self):
            self.send(self.main, "done")

    class Main(Chare):
        def __init__(self):
            h = self.create(Child, self.thishandle, pe=0)
            self.send(h, "not_an_entry")

        def done(self):
            self.exit(True)

    machine = make_machine("ideal", 2)
    result = Kernel(machine, strict_entries=False).run(Main)
    assert result.result is True


def test_api_outside_execution_raises(ideal4):
    kernel = Kernel(ideal4)
    with pytest.raises(SchedulingError):
        kernel.api_charge(10)


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


def test_negative_charge_rejected(ideal4):
    class BadMain(Chare):
        def __init__(self):
            self.charge(-5)

    with pytest.raises(ConfigurationError):
        Kernel(ideal4).run(BadMain)


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


def test_until_horizon_truncates(ipsc8):
    class Forever(Chare):
        def __init__(self):
            self.send(self.thishandle, "again")

        @entry
        def again(self):
            self.charge(1000)
            self.send(self.thishandle, "again")

    result = Kernel(ipsc8).run(Forever, until=0.01)
    assert result.truncated
    assert result.time >= 0.01


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
