"""Miscellaneous kernel edge cases and cross-cutting behaviors."""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.core.handles import ChareHandle
from repro.core.pe import PEPlane
from repro.util.errors import RoutingError


def test_send_to_never_created_handle_raises(ideal4):
    class Main(Chare):
        def __init__(self):
            self.send(ChareHandle(12345), "anything")

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


def test_send_branch_to_invalid_pe_raises(ideal4):
    from repro import BranchOfficeChare

    class B(BranchOfficeChare):
        def __init__(self):
            pass

    class Main(Chare):
        def __init__(self):
            boc = self.create_boc(B)
            self.send_branch(boc, 99, "whatever")

    with pytest.raises(RoutingError):
        Kernel(ideal4).run(Main)


def test_handles_usable_as_dict_keys(ideal4):
    class Child(Chare):
        def __init__(self, main):
            self.send(main, "from_child", self.thishandle)

    class Main(Chare):
        def __init__(self):
            self.seen = {}
            self.h1 = self.create(Child, self.thishandle, pe=1)
            self.h2 = self.create(Child, self.thishandle, pe=2)

        @entry
        def from_child(self, handle):
            self.seen[handle] = True
            if len(self.seen) == 2:
                self.exit(set(self.seen) == {self.h1, self.h2})

    assert Kernel(ideal4).run(Main).result is True


def test_priorities_on_regular_messages(ideal4):
    """Priorities order messages to *existing* chares, not only seeds."""
    order = []

    class Sink(Chare):
        def __init__(self, main):
            self.main = main
            self.send(main, "ready")

        @entry
        def block(self):
            # Keep the PE busy so the tagged messages pile up in the pool
            # (on an idle PE each would execute the instant it arrived).
            self.charge(1000)

        @entry
        def tagged(self, label):
            order.append(label)
            if len(order) == 3:
                self.send(self.main, "finish")

    class Main(Chare):
        def __init__(self):
            self.sink = self.create(Sink, self.thishandle, pe=1)

        @entry
        def ready(self):
            self.send(self.sink, "block")
            # All three depart together and queue behind 'block'; the
            # sink's pool must reorder them.
            self.send(self.sink, "tagged", "low", priority=30)
            self.send(self.sink, "tagged", "high", priority=1)
            self.send(self.sink, "tagged", "mid", priority=10)

        @entry
        def finish(self):
            self.exit(tuple(order))

    machine = make_machine("ideal", 2)
    result = Kernel(machine, queueing="prio").run(Main)
    assert result.result == ("high", "mid", "low")


def test_priolifo_end_to_end(ideal4):
    order = []

    class Sink(Chare):
        def __init__(self, main):
            self.main = main
            self.send(main, "ready")

        @entry
        def block(self):
            self.charge(1000)

        @entry
        def tagged(self, label):
            order.append(label)
            if len(order) == 4:
                self.exit(tuple(order))

    class Main(Chare):
        def __init__(self):
            self.sink = self.create(Sink, self.thishandle, pe=1)

        @entry
        def ready(self):
            self.send(self.sink, "block")
            self.send(self.sink, "tagged", "a5", priority=5)
            self.send(self.sink, "tagged", "b5", priority=5)
            self.send(self.sink, "tagged", "a1", priority=1)
            self.send(self.sink, "tagged", "b1", priority=1)

    machine = make_machine("ideal", 2)
    result = Kernel(machine, queueing="priolifo").run(Main)
    # Within equal priority: most recent first (LIFO).
    assert result.result == ("b1", "a1", "b5", "a5")


@pytest.mark.parametrize("via", ["create", "send"])
@pytest.mark.parametrize("prio", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_nan_priority_rejected_at_the_call(ipsc8, via, prio):
    """A NaN priority used to run to completion, misordering the pool."""
    from repro.util.errors import ConfigurationError

    class Child(Chare):
        def __init__(self, main):
            self.send(main, "done", "child")

    class Main(Chare):
        def __init__(self):
            if via == "create":
                self.create(Child, self.thishandle, priority=prio)
            else:
                self.send(self.thishandle, "done", "self", priority=prio)

        @entry
        def done(self, who):
            self.exit(who)

    kernel = Kernel(ipsc8, queueing="prio")
    if prio != prio:
        with pytest.raises(ConfigurationError, match="priority"):
            kernel.run(Main)
        return
    result = kernel.run(Main)
    assert (result.result, result.time) == {
        "create": ("child", 0.00093136), "send": ("self", 0.000115)}[via]


def test_main_ctor_charge_occupies_pe0(ideal4):
    class Busy(Chare):
        def __init__(self):
            self.charge(12345)
            self.exit(None)

    result = Kernel(ideal4).run(Busy)
    assert result.stats.pe_rows[0].busy_time == pytest.approx(12345e-6)


def test_kernel_exposes_services(ideal4):
    kernel = Kernel(ideal4)
    assert set(kernel.services) == {"share", "qd", "lb"}
    assert kernel.tree.num_pes == 4


def test_spanning_tree_param_validated(ideal4):
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Kernel(ideal4, spanning_tree="moebius")


@pytest.mark.parametrize("keyword", ["qd_interval", "lazy_interval"])
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), -1e-3, "x"])
def test_bad_interval_rejected_at_construction(ideal4, keyword, value):
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=keyword):
        Kernel(ideal4, **{keyword: value})


@pytest.mark.parametrize("keyword", ["qd_interval", "lazy_interval"])
@pytest.mark.parametrize("value", [0.0, 1e-4])
def test_zero_and_small_intervals_still_run(keyword, value):
    from repro.apps.tsp import TspInstance, run_tsp

    # Lazy tsp uses both: a batched monotonic bound and quiescence detection.
    inst = TspInstance.random(6, seed=3)
    (best, _, _), result = run_tsp(make_machine("ipsc2", 4), inst, grain=3,
                                   propagation="lazy", **{keyword: value})
    assert best == run_tsp(make_machine("ipsc2", 4), inst, grain=3)[0][0]
    assert result.kernel.qd.detected_at is not None and not result.truncated


@pytest.mark.parametrize("keyword, value", [
    ("queueing", "bogus"),  # used to fail when the first PE materialised
    ("seed", "x"),          # a bare ValueError
    ("seed", 1.5),          # ran as seed 1
    ("queueing", ["prio"]),  # a bare TypeError: unhashable type
], ids=["queueing", "seed-str", "seed-1.5", "queueing-list"])
def test_bad_queueing_or_seed_rejected_at_construction(ideal4, keyword, value):
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=keyword):
        Kernel(ideal4, **{keyword: value})


def test_nearest_valid_queueing_and_seed_still_run(ipsc8):
    import numpy as np

    from tests.conftest import run_echo

    plain = run_echo(ipsc8, n=16, queueing="lifo", seed=1)
    numpy = run_echo(ipsc8, n=16, queueing="lifo", seed=np.int64(1))
    assert plain.result == numpy.result
    assert [pe for _, pe in plain.result] == [
        6, 4, 2, 2, 7, 0, 7, 5, 4, 7, 5, 4, 4, 6, 5, 4]
    assert plain.time == numpy.time == 0.0019141999999999998


def test_kernel_constructor_keywords_are_pinned():
    """The next knob is a visible diff here."""
    import inspect

    assert [p.name for p in inspect.signature(Kernel).parameters.values()
            if p.kind is p.KEYWORD_ONLY] == [
        "queueing", "balancer", "seed", "qd_interval", "lazy_interval",
        "strict_entries", "spanning_tree", "faults",
        "trace_events", "telemetry",
    ]
    assert list(inspect.signature(PEPlane).parameters) == [
        "num_pes", "strategy_name", "gated"]


def test_timeline_json_roundtrip(tmp_path, ipsc8):
    import json

    from repro.trace.timeline import Timeline
    from tests.conftest import run_echo

    result = run_echo(ipsc8, n=8, seed=1, trace_events="exec_begin,exec_end")
    path = tmp_path / "events.json"
    path.write_text(json.dumps(result.kernel.events.as_records()))
    records = json.loads(path.read_text())
    live = Timeline(result.kernel.events)
    assert Timeline(records).render() == live.render()


def test_bus_saturation_flattens_speedup():
    """The symmetry preset's bus cap must actually bite at high P."""
    from repro.apps.matmul import run_matmul

    _, r8 = run_matmul(make_machine("symmetry", 8), n=48, g=4)
    _, r16 = run_matmul(make_machine("symmetry", 16), n=48, g=4)
    # Data-heavy matmul gains little beyond bus saturation.
    assert r16.time > 0.5 * r8.time


def test_two_kernels_are_isolated(ideal4):
    class Main(Chare):
        def __init__(self):
            self.new_accumulator("x", 0, "sum")
            self.accumulate("x", 1)
            self.exit(None)

    k1 = Kernel(make_machine("ideal", 2))
    k2 = Kernel(make_machine("ideal", 2))
    k1.run(Main)
    k2.run(Main)
    assert k1.sharing.accumulator_partial("x", 0) == 1
    assert k2.sharing.accumulator_partial("x", 0) == 1


# ------------------------------------------------------------------ send_at
class _TimedPeer(Chare):
    def __init__(self, main):
        self.send(main, "peer_ready")

    @entry
    def poke(self, main, payload):
        self.send(main, "poked", self.now)


class _TimedMain(Chare):
    """One timed self-send in the future, then one to an idle PE in the past."""

    PAYLOAD = (1, 2.5, "abc", (7, 8))

    def __init__(self):
        self.stamps = {}
        self.peer = self.create(_TimedPeer, self.thishandle, pe=1)

    @entry
    def peer_ready(self):
        self.charge(100)
        self.stamps["start"] = self.now
        self.send_at(self.now + 2e-3, self.thishandle, "tick")

    @entry
    def tick(self):
        self.stamps["future"] = self.now
        self.charge(50)
        # Before this execution began: departs at its start — not at 0, and
        # not after the 50 charged units as a plain send would.
        self.send_at(0.0, self.peer, "poke", self.thishandle, self.PAYLOAD)

    @entry
    def poked(self, at):
        self.stamps["past"] = at
        self.exit(self.stamps)


def test_send_at_departure_arrival_and_bytes(ipsc8):
    """Values taken with the envelope built by the dataclass ``__init__``
    and sized by the lazy ``nbytes`` property: the factory changes none."""
    res = Kernel(ipsc8, seed=3).run(_TimedMain)
    start, future = 0.0008931200000000001, 0.00290112
    assert res.result == {"start": start, "future": future,
                          "past": 0.00328532}
    assert future == start + 2e-3 + ipsc8.params.local_alpha
    assert res.time == 0.00372116
    assert [row.bytes_sent for row in res.stats.pe_rows] == [
        413, 80, 56, 0, 112, 0, 56, 0]


def test_send_at_unplaced_target_raises(ipsc8):
    class Idle(Chare):
        def __init__(self):
            pass

    class Main(Chare):
        def __init__(self):
            # Balancer-routed: the seed is still in flight, so there is no
            # PE to deliver a timed message to.
            self.send_at(1e-3, self.create(Idle), "anything")

    with pytest.raises(RoutingError, match="before placement"):
        Kernel(ipsc8).run(Main)

    class Stray(Chare):
        def __init__(self):
            self.send_at(1e-3, ChareHandle(12345), "anything")

    with pytest.raises(RoutingError, match="unknown handle"):
        Kernel(ipsc8).run(Stray)
