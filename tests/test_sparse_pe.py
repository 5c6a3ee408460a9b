"""Sparse-PE plane: O(active) state, bit-identity, and scale smoke tests.

The sparse-PE work (PR 8) replaces the kernel's eager per-PE list with a
lazily-materialized :class:`~repro.core.pe.PEPlane` and moves every
global structure (quiescence counters, balancer tables, sharing state)
to default-on-touch form.  These tests pin the two claims that make
that refactor safe and worthwhile:

* **one collective path** — a dense run *is* the span path over every
  rank: with ``Kernel.span`` returning a fresh all-ranks snapshot per call
  (the sparse shape) randomized app x preset x balancer x queueing x
  faults x tracing draws and the 16 golden cases do not move;
* **O(active) scale** — a P=10⁵–10⁶ machine touches only the active
  ranks: resident state, wall time and memory all scale with k, not P.

Plus unit coverage for PEPlane itself, a randomized oracle test pinning
the CentralBalancer's O(log P) heap against the historical O(P) scan,
and a regression test for the metrics sampler's utilization denominator
on sparse traces.
"""

from __future__ import annotations

import time
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.apps.fib import run_fib
from repro.apps.histogram import run_histogram
from repro.apps.nqueens import run_nqueens
from repro.apps.tree import TreeParams, run_tree
from repro.apps.tsp import TspInstance, run_tsp
from repro.core.chare import BranchOfficeChare, Chare, entry
from repro.core.kernel import Kernel
from repro.core.pe import PEPlane, PEState
from repro.core.tree import Span
from repro.faults import FaultConfig
from repro.machine.presets import make_machine
from repro.metrics import sample_metrics
from repro.trace.report import TraceReport
from repro.util.errors import ConfigurationError, RoutingError, SharingError
from repro.util.rng import RngStream
from tests import test_golden_trace as golden


# ---------------------------------------------------------------- PEPlane unit
def test_peplane_lazy_materialization():
    plane = PEPlane(1000, "fifo")
    assert len(plane) == 0
    state = plane[37]
    assert isinstance(state, PEState)
    assert state.index == 37
    assert state.gated  # dense-mode default: born gated
    assert len(plane) == 1
    assert plane[37] is state  # second lookup hits the same object
    assert plane.ranks() == [37]
    assert plane.states() == [state]


def test_peplane_get_peeks_without_materializing():
    plane = PEPlane(100, "fifo")
    assert plane.get(5) is None
    assert len(plane) == 0  # peeking must not touch
    plane[5]
    assert plane.get(5) is not None


def test_peplane_out_of_range_raises_indexerror():
    plane = PEPlane(8, "fifo")
    with pytest.raises(IndexError):
        plane[8]
    with pytest.raises(IndexError):
        plane[-1]
    assert len(plane) == 0


def test_peplane_dense_prefill_and_gating():
    assert PEPlane(16, "fifo")[3].gated  # (prefill went with dense=)
    sparse = PEPlane(16, "fifo", gated=False)
    assert not sparse[3].gated  # sparse kernels birth PEs ungated


# ------------------------------------------------ dense is the all-ranks span
def _fingerprint(answer, result) -> dict:
    """Everything observable: the golden fingerprint (result, times, events,
    per-PE counters) plus per-PE quiescence counts and the event records."""
    k = result.kernel
    return dict(
        golden._fingerprint(answer, result),
        truncated=result.truncated,
        counted=[(k.pes[i].counted_sent, k.pes[i].counted_processed)
                 for i in range(k.num_pes)],
        trace=None if k.events is None else list(map(repr, k.events.as_records())),
    )


_RUNNERS = {
    "fib": lambda machine, common: run_fib(
        machine, n=12, threshold=5, **common
    ),
    "queens": lambda machine, common: run_nqueens(
        machine, n=6, grainsize=2, **common
    ),
    "tree": lambda machine, common: run_tree(
        machine, TreeParams(seed=5, max_depth=6), **common
    ),
    "histogram": lambda machine, common: run_histogram(
        machine, items=64, workers=5, **common
    ),
}


def _run(app, machine_name, pes, common, **kernel_kwargs):
    machine = make_machine(machine_name, pes)
    answer, result = _RUNNERS[app](machine, dict(common, **kernel_kwargs))
    return _fingerprint(answer, result)


def _fresh_all_ranks_span(kernel):
    """``Kernel.span`` in the sparse shape: a new list and tree per call."""
    return Span(list(range(kernel.num_pes)),
                type(kernel.tree)(kernel.num_pes))


def test_randomized_dense_vs_lazy_equivalence():
    """A dense run is the span path over every rank: random draws over
    app x preset x balancer x queueing x faults x tracing compare a run
    whose every collective gets a fresh all-ranks snapshot (a sparse
    machine with every rank touched) against the default run, bit for bit."""
    rng = RngStream(1991, "sparse-equiv")
    apps = sorted(_RUNNERS)
    machines = ["symmetry", "multimax", "ipsc2", "ncube2", "cluster",
                "ideal", "hetero"]
    balancers = ["random", "acwn", "token", "central", "roundrobin"]
    queueings = ["fifo", "lifo", "prio", "bitprio"]
    fault_draws = [None, FaultConfig(jitter=3e-6),
                   FaultConfig(drop_prob=0.05, ack_timeout=2e-3)]
    for draw in range(8):
        app = apps[rng.randint(0, len(apps) - 1)]
        machine_name = machines[rng.randint(0, len(machines) - 1)]
        common = dict(
            balancer=balancers[rng.randint(0, len(balancers) - 1)],
            queueing=queueings[rng.randint(0, len(queueings) - 1)],
            seed=rng.randint(0, 10_000),
        )
        kw = {}
        faults = fault_draws[rng.randint(0, len(fault_draws) - 1)]
        if faults is not None:
            kw["faults"] = faults
        if rng.randint(0, 1):
            kw["trace_events"] = "all"
        default_fp = _run(app, machine_name, 8, common, **kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Kernel, "span", _fresh_all_ranks_span)
            snapshot_fp = _run(app, machine_name, 8, common, **kw)
        assert snapshot_fp == default_fp, (
            f"draw {draw}: {app}@{machine_name} {common} {sorted(kw)} diverged"
        )


# Dense cases only: a sparse case's span is its touched ranks by design.
_DENSE_GOLDEN = [c for c in golden.ALL_CASES if not c[2].get("sparse")]


@pytest.mark.parametrize("case_id,runner,spec", _DENSE_GOLDEN,
                         ids=[c[0] for c in _DENSE_GOLDEN])
def test_golden_fixtures_hold_under_fresh_span_snapshots(
        monkeypatch, case_id, runner, spec):
    monkeypatch.setattr(Kernel, "span", _fresh_all_ranks_span)
    fingerprint = golden._fingerprint(*golden._run_case(runner, spec))
    assert fingerprint == golden._load_fixtures()[case_id]


def test_sparse_p100k_touches_only_active_ranks():
    machine = make_machine("cluster", 100_000, sparse=True)
    ans, res = run_fib(machine, n=14, threshold=6, balancer="random", seed=0)
    k = res.kernel
    assert ans == 377
    touched = len(k.pes)
    assert touched < 1_000, f"sparse fib touched {touched} of 100k PEs"
    # Global structures scale with the touched set, not with P.
    assert sum(len(row) for row in k.balancer.known.values()) < 10_000
    report = TraceReport.from_kernel(k)
    assert len(report.pe_rows) == touched


def test_sparse_quiescence_and_collect_stay_sparse():
    """QD waves and accumulator gathers enumerate the touched set only —
    the event count must be orders of magnitude below P, and the run must
    finish in seconds: an O(P) regression blows the wall budget."""
    t0 = time.perf_counter()
    machine = make_machine("cluster", 100_000, sparse=True)
    ans, res = run_tree(machine, TreeParams(seed=7, max_depth=7),
                        balancer="random", seed=1)
    wall = time.perf_counter() - t0
    k = res.kernel
    assert ans == (56, 31)  # structural answer: QD + collect completed
    assert len(k.pes) < 1_000
    assert wall < 30.0, f"blew the wall budget: {wall:.1f}s"
    assert res.events < 10_000  # full-P collectives would exceed 100k
    # tsp adds monotonic floods (eager) on top of QD + collects.
    inst = TspInstance.random(7, seed=11)
    machine = make_machine("cluster", 100_000, sparse=True)
    ans, res = run_tsp(machine, inst, grain=4, balancer="random",
                       queueing="prio", seed=4)
    assert len(res.kernel.pes) < 1_000
    assert res.events < 10_000


def test_sparse_p1m_memory_is_o_active():
    """Constructing and running a P=10⁶ kernel must allocate O(k), not
    O(P): the historical eager plane alone was hundreds of MB here."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        machine = make_machine("cluster", 1_000_000, sparse=True)
        ans, res = run_fib(machine, n=14, threshold=6, balancer="random",
                           seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ans == 377
    k = res.kernel
    assert len(k.pes) < 1_000
    # Generous ceiling: the run allocates a few MB; an eager P=1M plane
    # (~1 KB per PEState with its queues) would blow far past this.
    assert peak - base < 64 * 1024 * 1024, f"peak {peak - base} bytes"
    # Sharing/balancer state is touched-only too.
    share = k.services["share"]
    assert len(share._acc) + len(share._mono) < 4_000
    assert len(k.balancer.known) < 4_000


# ------------------------------------------------------------ sparse BOC spans
def _span_merge(a, b):
    return tuple(sorted(set(a) | set(b)))


class _SpanBoc(BranchOfficeChare):
    """Branch that reports its PE via reduction and joins a barrier."""

    def __init__(self):
        pass

    @entry
    def ping(self, target):
        self.contribute("who", (self.my_pe,), _span_merge, target=target,
                        entry_name="collected")

    @entry
    def sync(self, target):
        self._target = target
        self.barrier("b", "synced")

    @entry
    def synced(self, tag, count):
        self.contribute("cnt", count, "max", target=self._target,
                        entry_name="collected")


class _Toucher(Chare):
    def __init__(self, parent):
        self.send(parent, "touched")


class _SpanMain(Chare):
    """Touch a fixed rank set, then create a BOC and exercise its span:
    broadcast -> reduction -> barrier, each of which must walk only the
    write-once span of ranks active at creation time."""

    def __init__(self, ranks):
        self.pending = len(ranks)
        for pe in ranks:
            self.create(_Toucher, self.thishandle, pe=pe)

    @entry
    def touched(self):
        self.pending -= 1
        if self.pending == 0:
            self.boc = self.create_boc(_SpanBoc)
            self.broadcast_branches(self.boc, "ping", self.thishandle)

    @entry
    def collected(self, tag, value):
        if tag == "who":
            self.who = value
            self.broadcast_branches(self.boc, "sync", self.thishandle)
        else:
            self.exit((self.who, value))


def test_sparse_boc_span_is_o_active():
    """At P=10⁵, BOC create/broadcast/reduce/barrier must touch only the
    ranks active at creation (the write-once span), not all P."""
    P = 100_000
    ranks = sorted(i * 4099 for i in range(1, 25))  # 24 distinct ranks, no 0
    t0 = time.perf_counter()
    machine = make_machine("cluster", P, sparse=True)
    res = Kernel(machine).run(_SpanMain, ranks)
    wall = time.perf_counter() - t0
    k = res.kernel
    span_ranks = sorted([0] + ranks)  # PE 0 (main) is touched too
    who, barrier_count = res.result
    # The reduction visited exactly the span's branches...
    assert list(who) == span_ranks
    # ...the barrier released with the span's branch count...
    assert barrier_count == len(span_ranks)
    # ...branches were constructed on exactly the span ranks...
    boc_id = next(iter(k.sharing.branches))
    span = k.sharing.spans[boc_id]
    assert span.ranks == span_ranks and all(pe in span for pe in span_ranks)
    assert 1 not in span and P - 1 not in span
    assert sorted(k.sharing.branches[boc_id]) == span_ranks
    # ...and nothing was O(P): event and touched-rank counts stay ~k.
    assert len(k.pes) < 200, f"touched {len(k.pes)} of {P} PEs"
    assert res.events < 5_000, f"{res.events} events for a 25-rank span"
    assert wall < 30.0, f"blew the wall budget: {wall:.1f}s"


def test_sparse_boc_send_outside_span_raises():
    """A branch send to a rank outside the write-once span must fail
    loudly: no branch will ever be constructed there."""

    class Main(Chare):
        def __init__(self):
            self.boc = self.create_boc(_SpanBoc)
            self.send(self.thishandle, "later")

        @entry
        def later(self):
            # By now boc_create reached PE 0 and snapshotted the span
            # ({0}: nothing else is touched); rank 500 is outside it.
            self.send_branch(self.boc, 500, "ping", self.thishandle)

    machine = make_machine("cluster", 100_000, sparse=True)
    with pytest.raises(RoutingError, match="spans"):
        Kernel(machine).run(Main)


def test_sparse_boc_send_before_its_span_raises_on_arrival():
    """A branch send made before the BOC's span exists passes the call-site
    check; when it reaches a rank the span (taken at the root) left out,
    it fails loudly instead of waiting for a branch never built there."""

    class Main(Chare):
        def __init__(self):
            self.boc = self.create_boc(_SpanBoc)
            self.send_branch(self.boc, 500, "ping", self.thishandle)

    machine = make_machine("cluster", 100_000, sparse=True)
    with pytest.raises(RoutingError, match=r"PE 500: BocHandle\(0\) spans"):
        Kernel(machine).run(Main)


def test_dense_kernels_have_no_boc_spans():
    """A dense BOC's span is every rank (so golden traces and dense
    semantics are untouched) and its broadcast still reaches 0…7."""

    class Main(Chare):
        def __init__(self):
            self.boc = self.create_boc(_SpanBoc)
            self.broadcast_branches(self.boc, "ping", self.thishandle)

        @entry
        def collected(self, tag, value):
            self.exit(value)

    res = Kernel(make_machine("ideal", 8)).run(Main)
    assert list(res.result) == list(range(8))
    assert list(res.kernel.sharing.spans[0].ranks) == list(range(8))
    assert sorted(res.kernel.sharing.branches[0]) == list(range(8))


# ------------------------------------------------------- sparse write-once
class _WonceReader(Chare):
    def __init__(self, parent):
        self.send(parent, "read_back", self.get_writeonce("x"))


def test_sparse_write_once_is_o_active():
    """A write-once broadcast runs over the ranks touched as it reaches the
    root, not all P; a rank touched later holds the value for free."""

    class Main(Chare):
        def __init__(self):
            self.write_once("x", 42)
            self.start_quiescence(self.thishandle, "settled")

        @entry
        def settled(self):
            self.create(_WonceReader, self.thishandle, pe=77_777)

        @entry
        def read_back(self, value):
            self.exit(value)

    res = Kernel(make_machine("cluster", 100_000, sparse=True)).run(Main)
    assert res.result == 42
    assert res.events < 100, f"{res.events} events for one write_once"
    assert len(res.kernel.pes) < 10


def test_sparse_write_once_span_rank_still_waits_for_its_broadcast():
    class Main(Chare):
        def __init__(self):
            self.create(_Toucher, self.thishandle, pe=5)

        @entry
        def touched(self):
            # Rank 5 is touched, so it is on the broadcast's span; the seed
            # goes there directly and overtakes the copy relayed by PE 0.
            self.write_once("x", 1)
            self.create(_WonceReader, self.thishandle, pe=5)

    k = Kernel(make_machine("cluster", 100_000, sparse=True))
    with pytest.raises(SharingError, match="not yet replicated to PE 5"):
        k.run(Main)
    assert k.sharing.spans["x"].ranks == [0, 5]


# -------------------------------------------------- CentralBalancer heap oracle
class _ScanOracle:
    """The historical O(P) argmin scan, kept as the behavioral reference."""

    def __init__(self, num_pes):
        self.num_pes = num_pes
        self.known = {}        # subject -> load as seen by the manager
        self.outstanding = {}  # subject -> optimistic in-flight count

    def note_load(self, subject, load):
        self.known[subject] = load
        self.outstanding[subject] = 0

    def place(self, manager_local_load):
        best = 0
        best_est = manager_local_load + self.outstanding.get(0, 0)
        for cand in range(1, self.num_pes):
            est = self.known.get(cand, 0) + self.outstanding.get(cand, 0)
            if est < best_est:
                best, best_est = cand, est
        self.outstanding[best] = self.outstanding.get(best, 0) + 1
        return best


def test_central_heap_matches_bruteforce_scan():
    """Randomized oracle: the O(log P) lazy-heap placement must reproduce
    the historical O(P) scan decision for decision, including the
    lowest-index tie-break."""
    rng = RngStream(7, "central-oracle")
    for trial, P in enumerate([16, 257, 4096]):
        kernel = Kernel(make_machine("ideal", P), balancer="central")
        bal = kernel.balancer
        oracle = _ScanOracle(P)
        env = SimpleNamespace(hops=0)
        for step in range(400):
            if rng.randint(0, 2):  # 2/3 load reports, 1/3 placements
                subject = rng.randint(1, min(P, 64) - 1)
                load = rng.randint(0, 5)
                bal.note_load(0, subject, load)
                oracle.note_load(subject, load)
            else:
                got = bal.on_seed_arrival(0, env)
                got = 0 if got is None else got
                want = oracle.place(bal.local_load(0))
                assert got == want, (
                    f"P={P} step={step}: heap placed {got}, scan {want}"
                )


def test_central_placement_is_sublinear():
    """Sanity on the satellite's point: placements at P=10k must not be
    dramatically slower than at P=100 (the old scan was ~100x)."""
    import time

    def run_placements(P, n=300):
        kernel = Kernel(make_machine("ideal", P), balancer="central")
        bal = kernel.balancer
        env = SimpleNamespace(hops=0)
        rng = RngStream(1, f"place-{P}")
        t0 = time.perf_counter()
        for _ in range(n):
            bal.note_load(0, rng.randint(1, 63), rng.randint(0, 5))
            bal.on_seed_arrival(0, env)
        return time.perf_counter() - t0

    run_placements(100)  # warm up allocator / bytecode caches
    t_small, t_big = run_placements(100), run_placements(10_000)
    # The old O(P) scan made this ratio ~100; allow generous noise.
    assert t_big < t_small * 20, f"P=10k/{t_big:.4f}s vs P=100/{t_small:.4f}s"


# --------------------------------------------------------------- sampler denom
def _exec_record(eid, t, pe, dur):
    return {"eid": eid, "kind": "exec_end", "t": t, "pe": pe, "dur": dur,
            "uid": eid, "parent": None, "info": None}


def test_sampler_num_pes_inferred_vs_explicit():
    """On a sparse machine where only low ranks were touched, inferring
    ``num_pes`` as ``max_pe + 1`` overstates utilization; an explicit
    machine P must scale it down proportionally."""
    # Two PEs (0 and 3) busy the whole [0, 1.0] span on a 100-PE machine.
    records = [
        _exec_record(1, 1.0, 0, 1.0),
        _exec_record(2, 1.0, 3, 1.0),
    ]
    inferred = sample_metrics(records, buckets=1)
    explicit = sample_metrics(records, buckets=1, num_pes=100)
    assert inferred[0]["util"] == pytest.approx(2.0 / 4.0)  # max_pe+1 == 4
    assert explicit[0]["util"] == pytest.approx(2.0 / 100.0)
    assert explicit[0]["util"] < inferred[0]["util"]
    with pytest.raises(ConfigurationError, match="num_pes"):
        sample_metrics(records, buckets=1, num_pes=0)
