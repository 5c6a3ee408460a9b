"""Probes: isolated calls into one layer's public API, timed on the host.

Each probe is the median of ``REPEATS`` samples, taken after one untimed
call and each at least ``SAMPLE_S`` long, in operations per host second
unless its name ends in ``_s``.  A probe says how fast a layer is on its
own; only the workloads say whether that matters (see the interaction
table in README.md).
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, Dict

from repro import Chare, FaultConfig, Kernel, entry, make_machine, make_strategy
from repro.balance import make_balancer
from repro.bench.cache import ResultCache
from repro.bench.harness import describe, execute_descriptor
from repro.machine import Machine, Mesh2DTopology
from repro.metrics import request_latencies
from repro.obs import Histogram, Telemetry
from repro.sim import make_backend
from repro.trace import TraceReport
from repro.util import BitVectorPriority, payload_nbytes
from repro.util.hashing import source_fingerprint, stable_digest
from repro.workloads import Poisson, arrival_times

from ledger import ROOT

REPEATS = 5
SAMPLE_S = 0.05


# The probe programs are written here, on the public ``Chare`` API, and not
# borrowed from ``repro.bench._workloads``: a change to the simulator's own
# microbenchmarks must not move the ledger's numbers.
class PingPong(Chare):
    """Two chares on different PEs (one when P = 1) bouncing one message."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.peer = self.create(Echo, self.thishandle, pe=self.num_pes - 1)
        self.send(self.peer, "ping", 0)

    @entry
    def pong(self, i):
        if i >= self.rounds:
            self.exit(i)
        else:
            self.send(self.peer, "ping", i + 1)


class Echo(Chare):
    def __init__(self, parent):
        self.parent = parent

    @entry
    def ping(self, i):
        self.send(self.parent, "pong", i + 1)


class Fanout(Chare):
    """N balancer-routed seeds, each replying once."""

    def __init__(self, n):
        self.n = n
        self.seen = 0
        for _ in range(n):
            self.create(FanWorker, self.thishandle)

    @entry
    def done(self):
        self.seen += 1
        if self.seen == self.n:
            self.exit(self.seen)


class FanWorker(Chare):
    def __init__(self, parent):
        self.send(parent, "done")


def _noop(_arg) -> None:
    return None


def rate(fn: Callable[[], int]) -> float:
    """Median operations per host second of ``fn``, which returns its count."""
    fn()
    rates = []
    for _ in range(REPEATS):
        ops = 0
        start = time.perf_counter()
        while True:
            ops += fn()
            elapsed = time.perf_counter() - start
            if elapsed >= SAMPLE_S:
                break
        rates.append(ops / elapsed)
    return statistics.median(rates)


def once(fn: Callable, *args) -> Callable[[], int]:
    """``fn(*args)`` as a probe body that counts one operation."""
    def run() -> int:
        fn(*args)
        return 1
    return run


# ----------------------------------------------------------------- the probes
def engine_events(backend: str) -> Callable[[], int]:
    def run() -> int:
        engine = make_backend(backend)
        for i in range(20_000):
            engine.schedule_call(float(i % 97), _noop, None)
        engine.run()
        return engine.events_fired
    return run


def pingpong(preset: str, pes: int) -> Callable[[], int]:
    def run() -> int:
        rounds = 3_000
        result = Kernel(make_machine(preset, pes)).run(PingPong, rounds)
        if result.result < rounds:
            raise RuntimeError(f"ping-pong on {preset} stopped at {result.result}")
        return rounds
    return run


def fanout() -> int:
    seeds = 1_500
    result = Kernel(make_machine("ncube2", 16), balancer="random").run(Fanout, seeds)
    if result.result != seeds:
        raise RuntimeError(f"fan-out answered {result.result}")
    return seeds


def transit() -> Callable[[], int]:
    machines = [make_machine("symmetry", 16), make_machine("ncube2", 64),
                Machine("mesh", Mesh2DTopology(64), make_machine("ipsc2", 64).params)]

    def run() -> int:
        ops = 0
        for machine in machines:
            pes, transit_time, hops = (machine.num_pes, machine.transit_time,
                                       machine.hops_fn)
            for i in range(4_000):
                src, dst = i % pes, (i * 7 + 3) % pes
                transit_time(src, dst, 64 + i % 512, i * 1e-6)
                hops(src, dst)
            ops += 4_000
        return ops
    return run


def pool(strategy: str) -> Callable[[], int]:
    if strategy == "bitprio":
        prios = [BitVectorPriority(((i * 2654435761) >> b) & 1 for b in range(24))
                 for i in range(256)]
    else:
        prios = [(i * 2654435761) % 1000 for i in range(256)]

    def run() -> int:
        queue = make_strategy(strategy)
        n = 8_000
        for i in range(n):
            queue.push(i, prios[i % 256])
        while queue:
            queue.pop()
        return 2 * n
    return run


def placements(name: str) -> Callable[[], int]:
    """Drive one balancer's decisions on PE 0 (the ``central`` manager)
    directly: a piggybacked load report, a new seed, an arriving seed."""
    def run() -> int:
        kernel = Kernel(make_machine("ncube2", 64), balancer=make_balancer(name))
        balancer = kernel.balancer
        envelope = SimpleNamespace(hops=0)
        n = 4_000
        for i in range(n):
            balancer.note_load(0, (i * 40503) % 63 + 1, (i * 2654435761) % 7)
            balancer.on_new_seed(0, Fanout)
            balancer.on_seed_arrival(0, envelope)
        return n
    return run


def app_execs(app: str, machine: str, pes: int, **params) -> Callable[[], int]:
    """Run one registered app; the count is its entry-method executions."""
    desc = describe(app, machine, pes, **params)

    def run() -> int:
        row = execute_descriptor(desc)
        if row.truncated:
            raise RuntimeError(f"{desc.label()} was truncated")
        return row.stats.total_msgs_executed + row.stats.total_system_executed
    return run


def tsp_nodes() -> int:
    row = execute_descriptor(describe("tsp", "ideal", 1, n=9, grain=4))
    return row.answer[1]  # nodes expanded


def arrivals() -> int:
    return len(arrival_times(Poisson(rate=2000.0, count=20_000), 1))


def observe() -> int:
    histogram = Histogram()
    n = 30_000
    for i in range(n):
        histogram.observe(1e-6 * (1 + i % 977))
    return n


def sizing() -> Callable[[], int]:
    payloads = [(1, 2, 3), (1.5, 2, "abc"), ((1, 2), [3.0, 4.0]), 7, 3.25,
                ("tour", (0, 3, 1, 2), 117), {"k": 1}, b"0123456789abcdef"]

    def run() -> int:
        n = 4_000
        for _ in range(n):
            for payload in payloads:
                payload_nbytes(payload)
        return n * len(payloads)
    return run


def digests() -> Callable[[], int]:
    canonical = describe("tsp", "ncube2", 64).canonical()

    def run() -> int:
        n = 1_500
        for _ in range(n):
            stable_digest(("fingerprint", canonical))
        return n
    return run


def describe_keys() -> int:
    n = 600
    for i in range(n):
        describe("queens", "ncube2", 1 + i % 64, n=8, grainsize=3).key("fingerprint")
    return n


def run_probes() -> Dict[str, float]:
    """Every probe's value, keyed by metric name."""
    out = {
        "sim.heap_events_per_s": rate(engine_events("heap")),
        "sim.batch_events_per_s": rate(engine_events("batch")),
        "core.pingpong_msgs_per_s.ideal": rate(pingpong("ideal", 1)),
        "core.pingpong_msgs_per_s.ncube2": rate(pingpong("ncube2", 2)),
        "core.fanout_seeds_per_s.ncube2": rate(fanout),
        "machine.transit_per_s": rate(transit()),
        "queueing.fifo_ops_per_s": rate(pool("fifo")),
        "queueing.prio_ops_per_s": rate(pool("prio")),
        "queueing.bitprio_ops_per_s": rate(pool("bitprio")),
        "balance.central_placements_per_s": rate(placements("central")),
        "balance.acwn_placements_per_s": rate(placements("acwn")),
        "sharing.table_ops_per_s": rate(app_execs("histogram", "ipsc2", 8)),
        "quiescence.detect_runs_per_s": rate(once(
            execute_descriptor, describe("queens", "ipsc2", 32, n=6, grainsize=2))),
        "faults.drop_retry_execs_per_s": rate(app_execs(
            "queens", "ncube2", 8, n=7, faults=FaultConfig(drop_prob=0.05))),
        "apps.tsp_nodes_per_s": rate(tsp_nodes),
        "apps.queens_execs_per_s": rate(app_execs("queens", "ideal", 1)),
        "apps.jacobi_execs_per_s": rate(app_execs("jacobi", "ideal", 1)),
        "workloads.arrival_times_per_s": rate(arrivals),
        "obs.observe_per_s": rate(observe),
        "util.payload_nbytes_per_s": rate(sizing()),
        "util.stable_digest_per_s": rate(digests()),
        "bench.describe_key_per_s": rate(describe_keys),
    }

    # One traced, telemetered serving run feeds the observability probes.
    telemetry = Telemetry()
    row = execute_descriptor(describe("serving", "ncube2", 8))
    kernel = Kernel(make_machine("ncube2", 64), telemetry=telemetry)
    kernel.run(Fanout, 200)
    log = row.result.kernel.events
    records = log.as_records()
    out["trace.report_build_per_s"] = rate(once(TraceReport.from_kernel, kernel))
    out["trace.eventlog_events_per_s"] = rate(lambda: len(log.as_records()))
    out["metrics.latency_requests_per_s"] = rate(
        lambda: len(request_latencies(records)))
    out["obs.snapshot_per_s"] = rate(once(telemetry.snapshot))
    out["util.source_fingerprint_s"] = 1.0 / rate(once(source_fingerprint))
    fingerprint = source_fingerprint()

    cache_dir = tempfile.mkdtemp(prefix=".ledger_tmp_", dir=ROOT)
    try:
        descs = [describe("queens", "ncube2", p, n=6, grainsize=2) for p in range(1, 65)]
        # A row as a pool worker returns it: without the live kernel graph.
        stored = replace(execute_descriptor(descs[0]), result=None)

        def put() -> int:
            cache = ResultCache(cache_dir, fingerprint=fingerprint)
            for desc in descs:
                cache.put(desc, stored)
            return cache.stores

        def get() -> int:
            cache = ResultCache(cache_dir, fingerprint=fingerprint)
            for desc in descs:
                cache.get(desc)
            return cache.hits

        out["bench.cache_put_per_s"] = rate(put)
        out["bench.cache_get_per_s"] = rate(get)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out
