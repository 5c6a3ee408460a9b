"""Heterogeneous-machine (per-PE speed) semantics."""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.machine.network import Machine, MachineParams
from repro.machine.topology import FullyConnectedTopology


def test_compute_time_respects_pe_speeds():
    m = Machine("h", FullyConnectedTopology(2),
                MachineParams(work_unit_time=1e-6), pe_speeds=(1.0, 3.0))
    assert m.compute_time(100, 0) == pytest.approx(100e-6)
    assert m.compute_time(100, 1) == pytest.approx(300e-6)


def test_homogeneous_default_ignores_pe_index():
    m = Machine("m", FullyConnectedTopology(2), MachineParams())
    assert m.compute_time(50, 0) == m.compute_time(50, 1)


def test_hetero_preset_shape():
    m = make_machine("hetero", 8)
    assert len(m.pe_speeds) == 8
    assert min(m.pe_speeds) == 1.0
    assert max(m.pe_speeds) == 4.0


def test_slow_pe_takes_proportionally_longer():
    marks = {}

    class Timed(Chare):
        def __init__(self, main, label):
            start = self._kernel.now
            self.charge(10_000)
            self.send(main, "done", label, start)

    class Main(Chare):
        def __init__(self):
            self.reports = {}
            self.create(Timed, self.thishandle, "fast", pe=0)  # speed 1.0
            self.create(Timed, self.thishandle, "slow", pe=3)  # speed 4.0

        @entry
        def done(self, label, start):
            self.reports[label] = start
            if len(self.reports) == 2:
                self.exit(None)

    machine = make_machine("hetero", 4)
    result = Kernel(machine).run(Main)
    rows = {r.pe: r for r in result.stats.pe_rows}
    # Same charged work; PE 3 spent ~4x the busy time on it.
    fast_busy = rows[0].busy_time
    slow_busy = rows[3].busy_time
    assert slow_busy > 3.5 * fast_busy


def test_send_offsets_scale_with_pe_speed():
    arrivals = []

    class Sink(Chare):
        def __init__(self):
            pass

        @entry
        def hit(self, who):
            arrivals.append((who, self._kernel.now))
            if len(arrivals) == 2:
                self.exit(None)

    class Emitter(Chare):
        def __init__(self, sink, who):
            self.charge(10_000)
            self.send(sink, "hit", who)

    class Main(Chare):
        def __init__(self):
            sink = self.create(Sink, pe=1)
            self.create(Emitter, sink, "fast", pe=0)   # speed 1.0
            self.create(Emitter, sink, "slow", pe=3)   # speed 4.0

    machine = make_machine("hetero", 4)
    Kernel(machine).run(Main)
    times = dict(arrivals)
    assert times["slow"] > times["fast"]
    # The gap is roughly the 3x extra compute time on the slow node.
    assert times["slow"] - times["fast"] > 2.0 * 10_000e-6
