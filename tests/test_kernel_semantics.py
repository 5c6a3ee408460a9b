"""Execution-model semantics: timing math, serialization, buffering.

These tests pin the *normative* semantics of DESIGN.md §5 with hand-computed
virtual times on machines with simple constants.
"""

import pytest

from repro import Chare, Kernel, entry
from repro.machine.network import Machine, MachineParams
from repro.machine.topology import BusTopology


def flat_machine(
    num_pes=2,
    work_unit_time=1e-6,
    sched_overhead=10e-6,
    recv_overhead=5e-6,
    alpha=100e-6,
    local_alpha=1e-6,
):
    """A machine with hand-friendly constants and no size/hop terms."""
    params = MachineParams(
        work_unit_time=work_unit_time,
        sched_overhead=sched_overhead,
        recv_overhead=recv_overhead,
        alpha=alpha,
        beta=0.0,
        per_hop=0.0,
        local_alpha=local_alpha,
    )
    return Machine("flat", BusTopology(num_pes), params)


def test_single_entry_timing():
    """Main ctor charging W occupies PE0 for sched+recv+W*wut exactly."""

    class Main(Chare):
        def __init__(self):
            self.charge(100)
            self.exit(None)

    result = Kernel(flat_machine()).run(Main)
    # Main ctor: 10+5+100 us; init broadcast + gates follow but exit stops it.
    assert result.time == pytest.approx(115e-6)


def test_remote_roundtrip_timing():
    """Reply latency = sender execution tail + alpha, exactly.

    Measured from the child's constructor start (after the startup gates
    have opened) so the assertion is independent of init-broadcast timing.
    """
    marks = {}

    class Child(Chare):
        def __init__(self, parent):
            marks["ctor_start"] = self._kernel.now
            self.charge(40)
            self.send(parent, "back")

    class Main(Chare):
        def __init__(self):
            self.create(Child, self.thishandle, pe=1)

        @entry
        def back(self):
            marks["back_start"] = self._kernel.now
            self.exit(None)

    Kernel(flat_machine()).run(Main)
    # Child execution: sched 10 + recv 5 + 40 work = 55us; reply departs at
    # its end, pays alpha = 100us; PE0 is idle so 'back' starts on arrival.
    assert marks["back_start"] - marks["ctor_start"] == pytest.approx(155e-6)


def test_sends_depart_at_charge_offsets():
    """Two sends bracketing a charge leave at different virtual times."""
    arrivals = []

    class Sink(Chare):
        def __init__(self, main):
            # Tell the main chare we exist: once 'go' runs, this PE is idle,
            # so each hit executes exactly when it arrives.
            self.send(main, "go")

        @entry
        def hit(self, label):
            arrivals.append((label, self._kernel.now))
            if len(arrivals) == 2:
                self.exit(arrivals)

    class Main(Chare):
        def __init__(self):
            self.sink = self.create(Sink, self.thishandle, pe=1)

        @entry
        def go(self):
            self.send(self.sink, "hit", "early")
            self.charge(1000)
            self.send(self.sink, "hit", "late")

    result = Kernel(flat_machine()).run(Main)
    (l1, t1), (l2, t2) = sorted(result.result, key=lambda p: p[1])
    assert (l1, l2) == ("early", "late")
    assert t2 - t1 == pytest.approx(1000e-6)


def test_pe_executes_one_message_at_a_time():
    """Messages to one chare serialize; overlap would break busy accounting."""
    spans = []

    class Busy(Chare):
        def __init__(self, main, n):
            self.main = main
            self.n = n
            self.done = 0

        @entry
        def work(self):
            spans.append(self._kernel.now)
            self.charge(100)
            self.done += 1
            if self.done == self.n:
                self.send(self.main, "finished")

    class Main(Chare):
        def __init__(self, n):
            h = self.create(Busy, self.thishandle, n, pe=1)
            for _ in range(n):
                self.send(h, "work")

        @entry
        def finished(self):
            self.exit(spans)

    result = Kernel(flat_machine()).run(Main, 5)
    starts = result.result
    # Each execution takes 115us (10+5+100); consecutive starts are >= that.
    for a, b in zip(starts, starts[1:]):
        assert b - a >= 115e-6 - 1e-12


def test_messages_to_unplaced_handle_are_buffered():
    """Sends races with balancer placement must still be delivered."""

    class Child(Chare):
        def __init__(self, main):
            self.main = main
            self.got = 0

        @entry
        def poke(self, i):
            self.got += 1
            if self.got == 3:
                self.send(self.main, "done", self.my_pe)

    class Main(Chare):
        def __init__(self):
            h = self.create(Child, self.thishandle)  # balancer-routed
            for i in range(3):
                self.send(h, "poke", i)              # before placement!

        @entry
        def done(self, pe):
            self.exit(pe)

    result = Kernel(flat_machine(4), balancer="random", seed=5).run(Main)
    assert result.result in range(4)


def test_messages_arriving_before_construction_are_held():
    """A zero-payload message can overtake the (larger) seed: buffered."""

    class Child(Chare):
        def __init__(self, main, payload):
            self.main = main
            self.seen_ctor = True

        @entry
        def poke(self):
            assert self.seen_ctor
            self.send(self.main, "done")

    class Main(Chare):
        def __init__(self):
            # Big ctor payload + same-size alpha means the seed and the poke
            # race; correctness must not depend on who wins.
            h = self.create(Child, self.thishandle, b"x" * 4096, pe=1)
            self.send(h, "poke")

        @entry
        def done(self):
            self.exit(True)

    params = MachineParams(alpha=10e-6, beta=1e-6)  # size-dependent transit
    machine = Machine("sized", BusTopology(2), params)
    assert Kernel(machine).run(Main).result is True


def test_deterministic_virtual_time(ipsc8):
    """Same seed, same program -> bit-identical virtual end time."""
    from tests.conftest import run_echo

    t1 = run_echo(ipsc8, n=16, seed=3).time
    ipsc8b = Machine(ipsc8.name, ipsc8.topology, ipsc8.params)
    t2 = run_echo(ipsc8b, n=16, seed=3).time
    assert t1 == t2


def test_different_seeds_may_change_schedule():
    from tests.conftest import run_echo

    times = {
        run_echo(flat_machine(4), n=16, seed=s, balancer="random").time
        for s in range(6)
    }
    assert len(times) > 1  # random placement actually varies


def test_charged_units_accounted(ideal4):
    class Main(Chare):
        def __init__(self):
            self.charge(123.5)
            self.exit(None)

    result = Kernel(ideal4).run(Main)
    assert result.stats.total_charged == pytest.approx(123.5)
