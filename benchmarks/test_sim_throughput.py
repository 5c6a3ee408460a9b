"""Host-performance microbenchmarks of the simulator itself.

Unlike the T/F/A drivers (which regenerate the paper's tables in virtual
time), these measure the *host* cost of the machinery — events/second
through the engine, messages/second through the kernel, pool
push/pop throughput — so performance regressions in the simulator are
caught by pytest-benchmark's timing statistics.
"""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.apps.nqueens import run_nqueens
from repro.queueing.strategies import make_strategy
from repro.sim.backend import HeapBackend
from repro.sim.engine import Engine
from repro.util.priority import BitVectorPriority


def test_engine_event_throughput(benchmark):
    def run_10k():
        eng = Engine()
        for i in range(10_000):
            eng.schedule(float(i % 97), lambda: None)
        eng.run()
        return eng.events_fired

    assert benchmark(run_10k) == 10_000


def test_backend_event_throughput(benchmark):
    """The kernel's engine on its closure-free ``schedule_call`` path
    (97 distinct timestamps x ~103 events each)."""

    def run_10k():
        eng = HeapBackend()
        fn = (lambda _: None)
        for i in range(10_000):
            eng.schedule_call(float(i % 97), fn, None)
        eng.run()
        return eng.events_fired

    assert benchmark(run_10k) == 10_000


class _PingPong(Chare):
    def __init__(self, rounds):
        self.rounds = rounds
        self.send(self.thishandle, "ping", 0)

    @entry
    def ping(self, i):
        if i >= self.rounds:
            self.exit(i)
        else:
            self.send(self.thishandle, "ping", i + 1)


def test_kernel_message_throughput(benchmark):
    def run_chain():
        kernel = Kernel(make_machine("ideal", 1))
        return kernel.run(_PingPong, 2_000).result

    assert benchmark(run_chain) == 2_000


class _Fanout(Chare):
    def __init__(self, n):
        self.n = n
        self.seen = 0
        for i in range(n):
            self.create(_FanWorker, self.thishandle)

    @entry
    def done(self):
        self.seen += 1
        if self.seen == self.n:
            self.exit(self.seen)


class _FanWorker(Chare):
    def __init__(self, parent):
        self.send(parent, "done")


def test_kernel_seed_fanout_throughput(benchmark):
    def run_fanout():
        kernel = Kernel(make_machine("ideal", 8), balancer="random")
        return kernel.run(_Fanout, 1_000).result

    assert benchmark(run_fanout) == 1_000


@pytest.mark.parametrize("pes", [1, 4, 32])
def test_kernel_seed_fanout_throughput_scaling(benchmark, pes):
    """Seed throughput across machine sizes (P=8 is the tracked headline)."""

    def run_fanout():
        kernel = Kernel(make_machine("ideal", pes), balancer="random")
        return kernel.run(_Fanout, 1_000).result

    assert benchmark(run_fanout) == 1_000


def test_kernel_remote_message_throughput(benchmark):
    """Cross-PE traffic on a real topology: exercises the memoized
    hops/transit tables rather than the src == dst local fast path."""

    def run_remote():
        kernel = Kernel(make_machine("ncube2", 16))
        return kernel.run(_RemotePing, 1_000).result

    assert benchmark(run_remote) == 1_000


class _RemoteEcho(Chare):
    def __init__(self, parent):
        self.parent = parent

    @entry
    def ping(self, i):
        self.send(self.parent, "pong", i)


class _RemotePing(Chare):
    def __init__(self, rounds):
        self.rounds = rounds
        # Pin the echo chare to the far corner of the hypercube so every
        # round crosses the network.
        self.echo = self.create(_RemoteEcho, self.thishandle, pe=15)
        self.send(self.echo, "ping", 0)

    @entry
    def pong(self, i):
        if i >= self.rounds:
            self.exit(i)
        else:
            self.send(self.echo, "ping", i + 1)


def test_priority_pool_throughput(benchmark):
    def churn():
        q = make_strategy("prio")
        for i in range(5_000):
            q.push(i, (i * 2654435761) % 1000)
        total = 0
        while q:
            total += q.pop()
        return total

    assert benchmark(churn) == sum(range(5_000))


@pytest.mark.parametrize("name", ["fifo", "lifo", "bitprio", "priolifo"])
def test_pool_throughput(benchmark, name):
    """Push/pop churn for each queueing strategy (prio has its own test)."""

    def churn():
        q = make_strategy(name)
        for i in range(5_000):
            q.push(i, (i * 2654435761) % 1000)
        total = 0
        while q:
            q.pop()
            total += 1
        return total

    assert benchmark(churn) == 5_000


def test_pool_default_lane_throughput(benchmark):
    """All-unprioritized churn on a prio pool: the deque fast lane."""

    def churn():
        q = make_strategy("prio")
        for i in range(5_000):
            q.push(i)
        total = 0
        while q:
            q.pop()
            total += 1
        return total

    assert benchmark(churn) == 5_000


def test_pool_deep_bitvector_throughput(benchmark):
    """Churn with ~80-bit bitvector priorities (multi-chunk packed keys)."""
    prios = [
        BitVectorPriority(((i * 2654435761) >> b) & 1 for b in range(80))
        for i in range(64)
    ]

    def churn():
        q = make_strategy("bitprio")
        for i in range(5_000):
            q.push(i, prios[i % 64])
        total = 0
        while q:
            q.pop()
            total += 1
        return total

    assert benchmark(churn) == 5_000


def test_pool_mixed_traffic_throughput(benchmark):
    """None / small-int / bitvector interleaved: all three lanes hot."""
    prios = [
        BitVectorPriority(((i * 40503) >> b) & 1 for b in range(12))
        for i in range(16)
    ]

    def churn():
        q = make_strategy("prio")
        for i in range(5_000):
            r = i % 3
            if r == 0:
                q.push(i)
            elif r == 1:
                q.push(i, (i * 2654435761) % 1000)
            else:
                q.push(i, prios[i % 16])
        total = 0
        while q:
            q.pop()
            total += 1
        return total

    assert benchmark(churn) == 5_000


def test_search_bitprio_end_to_end_throughput(benchmark):
    """Full-stack prioritized search: N-queens with bitvector priorities.

    Covers the whole prioritized hot path — send-time key normalization,
    cached keys riding the envelopes, bitprio lane-split pools on every
    PE — with nodes expanded as the op count.
    """

    def run():
        (solutions, nodes), _ = run_nqueens(
            make_machine("ideal", 8), n=7, grainsize=3,
            queueing="bitprio", use_priorities=True,
        )
        assert solutions == 40
        return nodes

    assert benchmark(run) == 552


def test_sparse_kernel_p100k_throughput(benchmark):
    """Full kernel run on a sparse 100,000-PE machine.

    Exercises the O(active) PE plane end to end — construction, seed
    fan-out through the random balancer, teardown — where any O(P) term
    (eager PE lists, counter arrays, balancer tables) would dominate.
    """
    from repro.bench._workloads import Fanout

    def run():
        kernel = Kernel(make_machine("cluster", 100_000, sparse=True),
                        balancer="random")
        result = kernel.run(Fanout, 1_000)
        assert result.result == 1_000
        return result.events

    assert benchmark(run) > 1_000


def test_central_placement_p10k_throughput(benchmark):
    """CentralBalancer decision loop at P=10,000: the O(log P) lazy heap.

    The historical O(P) argmin scan made this ~100x slower; the
    benchmark drives load reports and placements directly, no app.
    """
    from types import SimpleNamespace

    def run():
        kernel = Kernel(make_machine("ideal", 10_000), balancer="central")
        bal = kernel.balancer
        env = SimpleNamespace(hops=0)
        for i in range(2_000):
            bal.note_load(0, (i * 40503) % 63 + 1, (i * 2654435761) % 7)
            bal.on_seed_arrival(0, env)
        return bal.seeds_placed_remote

    assert benchmark(run) > 0
