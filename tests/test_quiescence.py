"""Quiescence detection: correctness, latency, edge cases."""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.util.errors import QuiescenceError


class Spawner(Chare):
    """Tree of depth-d chares; nothing reports back — only QD can finish."""

    def __init__(self, depth, fanout):
        self.charge(50)
        if depth > 0:
            for _ in range(fanout):
                self.create(Spawner, depth - 1, fanout)


class QdMain(Chare):
    def __init__(self, depth, fanout):
        self.new_accumulator("n", 0, "sum")
        self.create(Spawner, depth, fanout)
        self.start_quiescence(self.thishandle, "quiet")

    @entry
    def quiet(self):
        self.exit(self.now)


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("ideal", 4), ("symmetry", 8), ("ipsc2", 16),
])
def test_detects_after_tree_finishes(machine_name, pes):
    machine = make_machine(machine_name, pes)
    kernel = Kernel(machine, seed=2)
    result = kernel.run(QdMain, 4, 3)
    assert result.result is not None
    # All 1 + 3 + ... + 3^4 spawner seeds must have executed first.
    total = sum(3**k for k in range(5))
    executed = sum(r.seeds_executed for r in result.stats.pe_rows)
    assert executed == total + 1  # + the main seed? main isn't a seed pool item
    assert kernel.qd.detected_at is not None
    assert kernel.qd.detected_at >= kernel.qd.work_end_at_detection


def test_callback_fires_exactly_once(ideal4):
    hits = []

    class Main(Chare):
        def __init__(self):
            self.create(Spawner, 2, 2)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            hits.append(self.now)
            self.send(self.thishandle, "after")

        @entry
        def after(self):
            self.exit(len(hits))

    assert Kernel(ideal4).run(Main).result == 1


def test_quiescence_with_no_work(ideal4):
    """A program that does nothing quiesces promptly."""

    class Main(Chare):
        def __init__(self):
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.exit("idle")

    assert Kernel(ideal4).run(Main).result == "idle"


def test_double_start_rejected(ideal4):
    class Main(Chare):
        def __init__(self):
            self.start_quiescence(self.thishandle, "quiet")
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            pass

    with pytest.raises(QuiescenceError):
        Kernel(ideal4).run(Main)


def test_restart_after_detection_allowed(ideal4):
    """QD is reusable once the previous detection has fired."""

    class Main(Chare):
        def __init__(self):
            self.rounds = 0
            self.create(Spawner, 2, 2)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.rounds += 1
            if self.rounds == 2:
                self.exit(self.rounds)
            else:
                self.create(Spawner, 2, 2)
                self.start_quiescence(self.thishandle, "quiet")

    assert Kernel(ideal4).run(Main).result == 2


def test_not_fooled_by_long_idle_gaps(ipsc8):
    """A chain with large virtual-time gaps must not trigger early QD."""

    class Relay(Chare):
        def __init__(self, hops, main):
            self.main = main
            self.hops = hops

        @entry
        def step(self):
            self.charge(50_000)  # 100ms on ipsc2: many QD waves pass
            if self.hops == 0:
                self.send(self.main, "done")
            else:
                nxt = self.create(Relay, self.hops - 1, self.main)
                self.send(nxt, "step")

    class Main(Chare):
        def __init__(self):
            self.done_seen = False
            first = self.create(Relay, 3, self.thishandle)
            self.send(first, "step")
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def done(self):
            self.done_seen = True

        @entry
        def quiet(self):
            self.exit(self.done_seen)

    kernel = Kernel(ipsc8, qd_interval=1e-4)  # waves 1000x shorter than steps
    result = kernel.run(Main)
    assert result.result is True
    assert kernel.qd.waves_run > 3


def test_waves_counted_and_uncounted_separate(ipsc8):
    kernel = Kernel(ipsc8, seed=1)
    result = kernel.run(QdMain, 3, 3)
    # QD ran and its traffic is in system counters, not app counters.
    assert result.stats.qd_waves >= 2
    assert result.stats.counted_sent == result.stats.counted_processed


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 4), ("ipsc2", 16),
])
def test_agg_drained_at_shutdown(machine_name, pes):
    """No partial wave-aggregation state may outlive the run."""
    kernel = Kernel(make_machine(machine_name, pes), seed=2)
    result = kernel.run(QdMain, 3, 3)
    assert result.result is not None
    assert kernel.qd._agg == {}


def test_stale_wave_contributions_ignored(ideal4):
    """A straggler from a superseded wave must not fold into the current
    wave's totals, and superseded partial state is purged at wave start."""
    kernel = Kernel(ideal4, seed=0)
    kernel.run(QdMain, 2, 2)
    qd = kernel.qd
    # A late 'up' carrying an old wave number is dropped outright.
    qd._fold(qd._wave - 1, 0, 5, 5, True)
    assert qd._agg == {}
    # Leaked partial state from an abandoned wave is purged on wave start.
    qd._agg[(qd._wave - 2, 1)] = {"sent": 1, "processed": 0, "idle": False,
                                  "have": 1, "need": 2}
    qd._callback = (None, "quiet")   # re-arm so _start_wave proceeds
    qd._start_wave()
    assert (qd._wave - 3, 1) not in qd._agg
    assert all(w == qd._wave for w, _ in qd._agg)


@pytest.mark.parametrize("where,params,expected", [
    # a2 quick: TSP on ipsc2 P=8 with a 5 ms lazy-propagation window.
    (("tsp", "ipsc2", 8),
     dict(seed=10, queueing="fifo", propagation="lazy", n=8, instance_seed=0,
          grain=2, bound_slack=1.6, lazy_interval=5e-3),
     299),
    # t10 paper: unbalanced tree on hetero P=16, random placement.
    (("tree", "hetero", 16), dict(seed=20, balancer="random"), (3636, 2616)),
], ids=["tsp-ipsc2-p8-seed10", "tree-hetero-p16-seed20"])
def test_sampled_skew_is_retried_not_raised(where, params, expected):
    """A wave whose *sampled* totals read processed > sent is ordinary
    skew (a PE sampled early sends to one sampled late), so the detector
    waits for the next wave.  Both runs used to die with 'QD accounting
    violated' in dense mode."""
    from repro.bench.harness import describe, execute_descriptor

    row = execute_descriptor(describe(*where, **params))
    answer = row.answer[0] if where[0] == "tsp" else row.answer
    assert answer == expected
    assert not row.truncated
    assert row.stats.counted_sent == row.stats.counted_processed


def test_instantaneous_overcount_still_raises(ideal4):
    """The safety check survives, on the totals that can never invert:
    processed > sent summed over all PEs at one instant."""
    kernel = Kernel(ideal4, seed=0)
    kernel.run(QdMain, 2, 2)
    kernel.pes[1].counted_processed += 1
    with pytest.raises(QuiescenceError, match="accounting violated"):
        kernel.qd._root_decide(3, 4, True)
