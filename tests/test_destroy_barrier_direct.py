"""Chare destruction, BOC barriers, and the direct runner."""

import pytest

from repro import BranchOfficeChare, Chare, Kernel, entry, make_machine
from repro.core.direct import DirectRunner, stress
from repro.util.errors import RoutingError


# -------------------------------------------------------------------- destroy
def test_self_destroy_removes_chare(ideal4):
    class Ephemeral(Chare):
        def __init__(self, main):
            self.send(main, "done", self.my_pe)
            self.destroy()

    class Main(Chare):
        def __init__(self):
            self.h = self.create(Ephemeral, self.thishandle, pe=1)

        @entry
        def done(self, pe):
            self.exit(self.h.gid not in self._kernel.objects.chares)

    assert Kernel(ideal4).run(Main).result is True


def test_message_to_destroyed_chare_raises(ideal4):
    class Ephemeral(Chare):
        def __init__(self):
            self.destroy()

    class Main(Chare):
        def __init__(self):
            h = self.create(Ephemeral, pe=1)
            self.send(h, "poke")

        @entry
        def poke(self):  # pragma: no cover - never reached
            pass

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


def test_destroy_remote_chare_rejected(ideal4):
    class Victim(Chare):
        def __init__(self):
            pass

    class Main(Chare):
        def __init__(self):
            self.h = self.create(Victim, pe=1)
            self.send(self.thishandle, "later")

        @entry
        def later(self):
            self.destroy(self.h)  # lives on PE 1, we are PE 0

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


def test_destroy_unknown_handle_rejected(ideal4):
    from repro.core.handles import ChareHandle

    class Main(Chare):
        def __init__(self):
            self.destroy(ChareHandle(999))

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


# -------------------------------------------------------------------- barrier
class PhaseBoc(BranchOfficeChare):
    """Counts phases; every branch re-arrives at each barrier together."""

    def __init__(self, main, phases):
        self.main = main
        self.phases = phases
        self.my_phase = 0

    @entry
    def go(self):
        self.charge(10 * (self.my_pe + 1))  # deliberately skewed work
        self.barrier(f"phase{self.my_phase}", "released")

    @entry
    def released(self, tag, count):
        assert count == self.num_pes
        assert tag == f"phase{self.my_phase}"
        self.my_phase += 1
        if self.my_phase == self.phases:
            if self.my_pe == 0:
                self.send(self.main, "finished", self.my_phase)
        else:
            self.go()


class BarrierMain(Chare):
    def __init__(self, phases):
        boc = self.create_boc(PhaseBoc, self.thishandle, phases)
        self.broadcast_branches(boc, "go")

    @entry
    def finished(self, phases):
        self.exit(phases)


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("ideal", 4), ("ipsc2", 16),
])
def test_barrier_releases_all_branches(machine_name, pes):
    result = Kernel(make_machine(machine_name, pes)).run(BarrierMain, 3)
    assert result.result == 3


def test_barrier_is_actually_synchronizing():
    """No branch may enter phase k+1 before all reached the phase-k barrier."""
    entered = []

    class Probe(BranchOfficeChare):
        def __init__(self):
            pass

        @entry
        def go(self):
            self.charge(100 * (self.my_pe + 1))
            entered.append(("arrive", self.my_pe, self._kernel.now))
            self.barrier("b", "released")

        @entry
        def released(self, tag, count):
            entered.append(("release", self.my_pe, self._kernel.now))
            if self.my_pe == 0:
                self.send(self.mainhandle, "finished", None)

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(Probe)
            self.broadcast_branches(boc, "go")

        @entry
        def finished(self, _):
            self.exit(True)

    Kernel(make_machine("ipsc2", 8)).run(Main)
    last_arrival = max(t for kind, _, t in entered if kind == "arrive")
    first_release = min(t for kind, _, t in entered if kind == "release")
    assert first_release >= last_arrival


# --------------------------------------------------------------------- direct
def test_direct_runner_returns_answer(echo_program):
    runner = DirectRunner(4, seed=1)
    answer = runner(echo_program, 6, False)
    assert [i for i, _ in answer] == list(range(6))


def test_direct_runner_run_gives_result_object(echo_program):
    result = DirectRunner(2).run(echo_program, 3, False)
    assert result.stats.num_pes == 2
    assert not result.truncated


def test_stress_detects_schedule_independence(echo_program):
    class Deterministic(Chare):
        def __init__(self):
            self.exit(42)

    answers, detail = stress(Deterministic, num_pes=(1, 2), seeds=(0, 1),
                             queueings=("fifo",), balancers=("random",))
    assert answers == [42]
    assert len(detail) == 4


def test_stress_surfaces_schedule_dependence():
    class Racy(Chare):
        """Deliberately schedule-dependent: first reply wins."""

        def __init__(self):
            self.done = False
            for i in range(4):
                self.create(_Racer, self.thishandle, i)

        @entry
        def claim(self, i):
            if not self.done:
                self.done = True
                self.exit(i)

    answers, _ = stress(Racy, num_pes=(2, 4), seeds=(0, 1, 2),
                        queueings=("fifo", "lifo"), balancers=("random",))
    assert len(answers) > 1  # the race is visible across schedules


class _Racer(Chare):
    def __init__(self, main, i):
        self.charge(10)
        self.send(main, "claim", i)
