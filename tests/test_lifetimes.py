"""What outlives an execution, a run, a batch.

* A chare whose class declares no ``@entry`` method is retired by the
  kernel as its constructor returns (nothing can address it again).
* ``Kernel.close()`` lets go of everything a kernel holds, so a finished
  run is freed by reference count, not by a later cycle collection.
* The sweep executor returns rows only: no kernel survives ``run_many``,
  and inline, pooled and cached rows are equal field for field.
* The recorder a sweep's serving runs fold their latencies into is
  acyclic and ends a run holding its finals only.

The garbage clauses run with the cycle collector *disabled*: whatever
``gc.collect()`` then finds is something only the collector could have
freed, i.e. a reference cycle a finished run left behind.
"""

import gc
import io
import pickle
import re
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import fields, replace

import pytest

import repro.bench.harness as harness
import repro.core.kernel as kernel_module
from repro import Chare, Kernel, entry, make_machine
from repro.apps.fib import FibNode, run_fib
from repro.apps.knapsack import KnapsackInstance, KnapsackNode, knapsack_seq
from repro.apps.nqueens import run_nqueens
from repro.apps.serving import run_serving
from repro.apps.tsp import TspInstance, TspNode, tsp_seq
from repro.bench.cache import ResultCache
from repro.bench.experiments import run_experiment
from repro.bench.harness import describe, execute_descriptor
from repro.bench.parallel import SweepExecutor, use_executor
from repro.core.chare import declares_entry
from repro.core.handles import ChareHandle
from repro.faults import FaultConfig
from repro.metrics.latency import LatencyFold
from repro.trace import PERow
from repro.util.errors import RoutingError


@contextmanager
def collector_disabled():
    """Collect what is already garbage, then keep the collector out."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ------------------------------------------------ (a) no kernel survives
def _mixed_batch():
    return [
        describe("queens", "ncube2", 8, n=6, grainsize=2),
        describe("fib", "ipsc2", 4, n=12, threshold=6),
        # Speculative search under "prio" with the eager monotonic bound.
        describe("tsp", "ncube2", 8, n=8, grain=4, queueing="prio"),
        describe("knapsack", "ipsc2", 8, n=14, grain=7),
        describe("jacobi", "multimax", 4),
        describe("histogram", "ipsc2", 8),
        describe("serving", "ncube2", 8, trace="all", metrics=1e-3),
        describe("queens", "ncube2", 8, n=6, grainsize=2,
                 faults=FaultConfig(drop_prob=0.05)),
        describe("tree", "ncube2", 64, sparse=True),
        # A2's shape (FIFO, lazy bound) and T7's ``off`` arm: the deepest
        # FIFO frontiers of the paper runs.  The collector is paused for a
        # run, so a cycle built in one would cost peak memory here.
        describe("tsp", "ipsc2", 8, queueing="fifo", propagation="lazy",
                 n=8, instance_seed=0, grain=2, bound_slack=1.6,
                 lazy_interval=0.05e-3),
        describe("tsp", "ipsc2", 8, queueing="fifo", propagation="off",
                 n=8, grain=2, bound_slack=1.5),
    ]


def test_executor_batch_leaves_no_kernel_and_no_garbage(monkeypatch):
    kernels = []
    real = execute_descriptor

    def spy(desc):
        row = real(desc)
        kernels.append(weakref.ref(row.result.kernel))
        return row

    monkeypatch.setattr(harness, "execute_descriptor", spy)
    descs = _mixed_batch()
    with SweepExecutor(jobs=1) as ex:
        ex.run_many(descs)          # warm imports, memos and lazy properties
    kernels.clear()
    with collector_disabled():
        with SweepExecutor(jobs=1) as ex:
            rows = ex.run_many(descs)
        assert len(kernels) == len(descs)
        alive = [d.label() for d, ref in zip(descs, kernels)
                 if ref() is not None]
        assert alive == []
        assert gc.collect() == 0
    assert all(row.result is None and row.events > 0 for row in rows)


@pytest.mark.parametrize("was_enabled", [True, False], ids=["on", "off"])
def test_execute_descriptor_pauses_the_collector_and_restores_it(
        monkeypatch, was_enabled):
    """Off while the run executes, then as it was before the call, also
    when the runner raises."""
    seen = []

    class Probe(Chare):
        def __init__(self, fail):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("the run fails")
            self.exit(None)

    def runner(machine, seed=0, fail=False, **params):
        return None, Kernel(machine, seed=seed).run(Probe, fail)

    monkeypatch.setitem(harness.APPS, "fib",
                        replace(harness.APPS["fib"], runner=runner))
    before = gc.isenabled()
    (gc.enable if was_enabled else gc.disable)()
    try:
        execute_descriptor(describe("fib", "ideal", 2))
        assert seen == [False] and gc.isenabled() is was_enabled
        with pytest.raises(RuntimeError, match="the run fails"):
            execute_descriptor(describe("fib", "ideal", 2, fail=True))
        assert seen == [False, False] and gc.isenabled() is was_enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_serving_sweep_folds_leave_no_garbage_and_only_their_finals(monkeypatch):
    """The S-series through ``run_descriptor``: every untraced serving run
    records into a fresh ``LatencyFold``, which is acyclic and ends the
    run holding one final per offered request and nothing in flight."""
    seen = []
    real = execute_descriptor

    def spy(desc):
        row = real(desc)
        seen.append((desc, dict(desc.params).get("trace_events"), row))
        return row

    monkeypatch.setattr(harness, "execute_descriptor", spy)
    series = ("s1", "s2", "s3", "s4", "s5", "s6")

    def sweep():
        with SweepExecutor(jobs=1) as ex, use_executor(ex):
            for exp_id in series:
                run_experiment(exp_id, scale="quick")

    sweep()                         # warm imports, memos and lazy properties
    seen.clear()
    with collector_disabled():
        sweep()
        assert gc.collect() == 0
    folds = [(d, f, row) for d, f, row in seen if isinstance(f, LatencyFold)]
    assert len(folds) >= 20 and len({id(f) for _, f, _ in folds}) == len(folds)
    # S6's scale arm sets trace_events=None itself and keeps it.
    assert any(f is None and "trace_events" in dict(d.params)
               for d, f, _ in seen)
    for desc, fold, row in folds:
        # No map, no stage: a fold keeps one tuple per request, and a seed
        # a work-stealing balancer took out of the pool leaves nothing
        # behind (its stage went with the envelope).
        assert fold.ctx is None and not fold._early
        assert len(fold.requests) == row.answer["offered"]
        assert set(vars(fold)) == {"ctx", "_requests", "_early"}
    assert any(desc.balancer_label == "token" for desc, _, _ in folds)


class DropsAFinal(LatencyFold):
    """A fold that loses the first request it folds."""

    dropped = False

    def msg_send(self, t, env):
        super().msg_send(t, env)
        if not self.dropped and self._requests:
            self.dropped = True
            del self._requests[0]


def test_fold_that_disagrees_with_the_collector_is_an_error():
    machine = make_machine("ncube2", 8)
    with pytest.raises(AssertionError,
                       match="latency analyzer disagrees with the collector"):
        run_serving(machine, trace_events=DropsAFinal())
    # The same check the default log gets; a log the caller chose does not.
    summary, _ = run_serving(make_machine("ncube2", 8),
                             trace_events=("exec_begin", "exec_end"))
    assert summary["completed"] == 200 and summary["p99"] is None


# ------------------------------------------- (b) one row shape, everywhere
def _wire(row):
    """The row's pickle with ``host_seconds`` masked and the memo off.

    With the memo on, the byte stream also records which equal strings
    happen to be one object (``row.machine`` and ``stats.machine`` are in
    this process, are not in a worker that unpickled its descriptor), and
    that differs by a row's history, not by its content.  Without it the
    stream is a function of values and their exact types.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(replace(row, host_seconds=0.0))
    return buffer.getvalue()


def test_inline_pooled_cached_and_single_miss_rows_are_equal(tmp_path):
    descs = [describe("queens", "ipsc2", 4, n=6, grainsize=2, seed=s)
             for s in (1, 2, 3)]
    descs.append(describe("serving", "ncube2", 8, trace="all"))
    # Untraced: the sweep records it into a LatencyFold, not an event log.
    descs.append(describe("serving", "ncube2", 8, balancer="token", hops=2))
    cache = ResultCache(str(tmp_path / "all"), fingerprint="pinned")
    with SweepExecutor(jobs=1, cache=cache) as ex:
        inline = ex.run_many(descs)
    with SweepExecutor(jobs=2) as ex:
        pooled = ex.run_many(descs)
    warm = ResultCache(str(tmp_path / "all"), fingerprint="pinned")
    with SweepExecutor(jobs=1, cache=warm) as ex:
        cached = ex.run_many(descs)
    assert warm.hits == len(descs) and warm.stores == 0
    # jobs=2 with exactly one miss takes the inline shortcut for it.
    partial = ResultCache(str(tmp_path / "partial"), fingerprint="pinned")
    for desc, row in zip(descs[1:], inline[1:]):
        partial.put(desc, row)
    with SweepExecutor(jobs=2, cache=partial) as ex:
        shortcut = ex.run_many(descs)
        assert ex._pool is None and ex.runs_executed == 1

    for batch in (inline, pooled, cached, shortcut):
        for row, ref in zip(batch, inline):
            assert row.result is None
            assert row.events > 0
            for f in fields(row):
                if f.name != "host_seconds":
                    assert getattr(row, f.name) == getattr(ref, f.name), f.name
            assert _wire(row) == _wire(ref)


@pytest.mark.parametrize("kind", ["faults", "sparse"])
def test_row_read_back_by_get_equals_the_row_put_stored(tmp_path, kind):
    if kind == "faults":
        desc = describe("queens", "ncube2", 8, n=6, grainsize=2,
                        faults=FaultConfig(drop_prob=0.05, stall_prob=0.02))
    else:
        desc = describe("tree", "cluster", 10_000, sparse=True)
    row = harness.run_descriptor(desc)
    ResultCache(str(tmp_path), fingerprint="pinned").put(desc, row)
    back = ResultCache(str(tmp_path), fingerprint="pinned").get(desc)
    assert back is not row and back == row
    assert back.stats.pe_rows == row.stats.pe_rows
    assert [type(r) for r in back.stats.pe_rows] == (
        [PERow] * len(row.stats.pe_rows))
    assert _wire(back) == _wire(row)
    if kind == "faults":
        # The defaulted fault fields carry values here, not their defaults.
        assert sum(r.retries for r in back.stats.pe_rows) > 0
        assert sum(r.stall_time for r in back.stats.pe_rows) > 0.0
    else:
        assert 0 < len(back.stats.pe_rows) < 10_000   # touched ranks only


def test_row_events_equal_the_live_runs_event_counts():
    class Recording(SweepExecutor):
        seen = []

        def run_many(self, descs, label=""):
            rows = super().run_many(descs, label=label)
            self.seen.extend(zip(descs, rows))
            return rows

    with Recording(jobs=1) as ex, use_executor(ex):
        run_experiment("t9", scale="quick")
    assert ex.seen
    assert sum(row.events for _, row in ex.seen) == sum(
        execute_descriptor(desc).result.events for desc, _ in ex.seen)


# ------------------------------------------------------------ (c) retirement
def test_entryless_node_chares_retire_at_constructor_return():
    _, result = run_nqueens(make_machine("ncube2", 8), n=6, grainsize=2)
    kernel = result.kernel
    seeds = sum(pe.seeds_executed for pe in result.stats.pe_rows)
    assert seeds > 100
    main = kernel.main_handle.gid
    assert list(kernel.chares) == [main]
    dead = [gid for gid in range(kernel._next_gid) if gid != main]
    assert len(dead) == seeds - 1
    assert all(gid not in kernel.placement and gid not in kernel.chares
               for gid in dead)


class Leaf(Chare):
    """No entry method: all its work is its constructor."""

    built = 0

    def __init__(self, parent):
        Leaf.built += 1
        self.charge(10)
        self.send(parent, "built")


class Listener(Chare):
    """One entry method: it can be addressed again, so it stays."""

    def __init__(self, parent):
        self.send(parent, "built")

    @entry
    def poke(self):
        self.send(self.mainhandle, "poked")


class SelfDestructing(Chare):
    def __init__(self, parent):
        self.destroy()
        self.send(parent, "built")


class Spawner(Chare):
    def __init__(self, cls, poke, count=1):
        self.poke = poke
        self.left = count
        self.handles = [self.create(cls, self.thishandle,
                                    pe=1 + i % (self.num_pes - 1))
                        for i in range(count)]

    @entry
    def built(self):
        self.left -= 1
        if self.left:
            return
        if self.poke:
            self.send(self.handles[0], "poke")
        else:
            self.exit([h.gid for h in self.handles])

    @entry
    def poked(self):
        self.exit([h.gid for h in self.handles])


def test_message_to_a_retired_chare_is_a_routing_error(ideal4):
    with pytest.raises(RoutingError, match="destroyed"):
        Kernel(ideal4).run(Spawner, Leaf, True)


def test_class_with_an_entry_is_kept(ideal4):
    result = Kernel(ideal4).run(Spawner, Listener, True)
    (gid,) = result.result
    assert gid in result.kernel.chares
    assert gid in result.kernel.placement


def test_self_destroying_entryless_chare_is_not_destroyed_twice(ideal4):
    result = Kernel(ideal4).run(Spawner, SelfDestructing, False)
    (gid,) = result.result
    assert gid not in result.kernel.placement
    assert gid not in result.kernel.chares


def test_duplicated_seed_of_a_retired_chare_runs_once():
    Leaf.built = 0
    faults = FaultConfig(drop_prob=0.1, dup_prob=0.3)
    kernel = Kernel(make_machine("ncube2", 8), faults=faults, seed=3)
    result = kernel.run(Spawner, Leaf, False, 60)
    assert Leaf.built == 60
    assert kernel.faults.msgs_duplicated > 0
    assert kernel.faults.dups_suppressed > 0
    assert kernel.faults.retries > 0
    assert list(kernel.chares) == [kernel.main_handle.gid]
    assert all(gid not in kernel.placement and gid not in kernel.chares
               for gid in result.result)
    assert list(kernel.placement) == list(kernel.chares)


def test_kernel_state_is_o_live_after_22k_destroyed_fib_nodes():
    """A finished FibNode destroys itself (ChareExit): fib(20) at grain 2
    creates 21,891 nodes and ends holding the main chare alone.  While
    FibNode kept itself alive the run ended holding all 21,892 chares
    (fib(16) below pins the kept-to-destroyed memory ratio)."""
    ans, result = run_fib(make_machine("ncube2", 64), n=20, threshold=2)
    kernel = result.kernel
    assert ans == 6765 and kernel._next_gid == 21_892
    assert list(kernel.chares) == [kernel.main_handle.gid]
    assert len(kernel.placement) == len(kernel.chares)


def _traced_peak_mb(fn):
    fn()                        # warm per-instance caches and code paths
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_fib_peak_memory_holds_the_waiting_nodes_only(monkeypatch):
    """fib(16), grain 2 (3,193 nodes) under LIFO, so the nodes waiting for
    replies at any moment are a path's worth, not a breadth-first level.
    Both ways in one process, so the bound does not depend on the
    interpreter's object layouts: on CPython 3.11, 0.95 MB traced peak
    with every node kept and 0.20 MB (0.21 of it) with every replied node
    destroyed.  (fib(20) under FIFO on 64 PEs read 8.0 and 4.5 MB, at ten
    times the run time.)"""
    def fib16():
        return run_fib(make_machine("ncube2", 8), n=16, threshold=2,
                       queueing="lifo")

    destroyed = _traced_peak_mb(fib16)
    monkeypatch.setattr(FibNode, "destroy", lambda self: None)
    kept = _traced_peak_mb(fib16)
    assert len(fib16()[1].kernel.chares) == 1 + 3_193      # main + nodes
    assert destroyed < 0.7 * kept


def test_fifo_tsp_peak_memory_ceiling(monkeypatch):
    """A queued seed carries only what its run reads, and a retired chare
    leaves no entry behind.  Quick A2-shaped run (TSP(9), FIFO, lazy
    bound, ipsc2 P=8, 3,059 retired nodes), measured against the same run
    with retirement switched off, in one process so the bound holds on
    every interpreter's object layouts: on CPython 3.11, 0.60 MB traced
    peak (the child-probe memo included) against 0.99 MB with every node
    kept.  A kernel entry kept per retired chare, or a fatter queued
    seed, moves the ratio toward 1."""
    desc = describe("tsp", "ipsc2", 8, queueing="fifo", propagation="lazy",
                    n=9, instance_seed=0, grain=2, bound_slack=1.6,
                    lazy_interval=0.05e-3)
    retired = _traced_peak_mb(lambda: harness.run_descriptor(desc))
    kernel = execute_descriptor(desc).result.kernel
    assert kernel._next_gid > 3_000
    assert list(kernel.placement) == list(kernel.chares)
    monkeypatch.setattr(kernel_module, "declares_entry", lambda cls: True)
    kept = _traced_peak_mb(lambda: harness.run_descriptor(desc))
    assert retired < 0.7 * kept


def test_fifo_tsp_frontier_carries_no_placement_records(monkeypatch):
    """A FIFO search's frontier is entry-less seeds waiting in pools, and
    such a seed has no placement record.  Quick T7-shaped run (TSP(8),
    FIFO, propagation off, a loose incumbent, ipsc2 P=8, 1,857 nodes),
    measured against the same run with every node addressable and
    destroying itself as its constructor returns (each waiting seed then
    holds a record, as every entry-less seed once did), in one process so
    the bound holds on every interpreter's object layouts: on CPython
    3.11, 0.34 MB traced peak against 0.44 MB.  A record per waiting seed
    moves the ratio to 1."""
    desc = describe("tsp", "ipsc2", 8, queueing="fifo", propagation="off",
                    n=8, instance_seed=0, grain=2, bound_slack=2.0)
    unaddressed = _traced_peak_mb(lambda: harness.run_descriptor(desc))
    init = TspNode.__init__

    def init_then_destroy(self, *args):
        init(self, *args)
        self.destroy()

    monkeypatch.setattr(kernel_module, "declares_entry", lambda cls: True)
    monkeypatch.setattr(TspNode, "__init__", init_then_destroy)
    addressed = _traced_peak_mb(lambda: harness.run_descriptor(desc))
    assert unaddressed < 0.9 * addressed, (unaddressed, addressed)


# ------------------------------------------ dead and unknown targets raise
class _Gone(Chare):
    """Tells main its handle, then destroys itself."""

    def __init__(self, main):
        self.send(main, "gone", self.thishandle)
        self.destroy()


class _Unaddressable(Chare):
    """Declares no entry method, so its seed is given no address."""

    def __init__(self):
        pass


class _Answer(Chare):
    def __init__(self, main):
        self.main = main

    @entry
    def got(self, *args):
        self.send(self.main, "done", args)


class _AsksAService(Chare):
    """Points a service's reply (table find, QD callback, accumulator
    collect) at a never-allocated, a destroyed, an entry-less or an
    in-flight handle."""

    def __init__(self, path, target):
        self.path = path
        self.new_table("t")
        self.new_accumulator("a")
        if target == "unknown":
            self._ask(ChareHandle(12345))
        elif target == "destroyed":
            self.create(_Gone, self.thishandle, pe=1)
        elif target == "entry_less":
            self._ask(self.create(_Unaddressable))
        else:       # a seed still being balanced: the one case that waits
            self._ask(self.create(_Answer, self.thishandle))

    def _ask(self, handle):
        if self.path == "table":
            self.table_find("t", "k", handle, "got")
        elif self.path == "qd":
            self.start_quiescence(handle, "got")
        else:
            self.collect_accumulator("a", handle, "got")

    @entry
    def gone(self, handle):
        self._ask(handle)

    @entry
    def done(self, args):
        self.exit(args)


_ANSWERS = {"table": ("k", None), "qd": (), "collect": ("acc:a:1", 0)}
_TARGETS = [("unknown", "to unknown handle ChareHandle(12345)"),
            ("destroyed", "to chare ChareHandle(1): destroyed"),
            # Refused at the reply itself, while the seed is still in
            # flight: it was given no address to buffer the reply against.
            ("entry_less", "service reply 'got' to chare ChareHandle(1): "
                           "destroyed, retired, or its class declares no "
                           "entry method"),
            ("in_flight", None)]
_TARGET_IDS = [target for target, _ in _TARGETS]


@pytest.mark.parametrize("target, error", _TARGETS, ids=_TARGET_IDS)
@pytest.mark.parametrize("path", ["table", "qd"])
def test_service_reply_to_unknown_or_dead_handle_raises(ideal4, path, target,
                                                        error):
    """The table-reply / QD-callback path used to park a reply to an
    unknown or dead handle in the pending-send buffer forever, and the run
    quiesced and returned as if nothing were wrong."""
    if error is None:
        assert Kernel(ideal4).run(_AsksAService, path, target).result == (
            _ANSWERS[path])
        return
    with pytest.raises(RoutingError, match=re.escape(error)):
        Kernel(ideal4).run(_AsksAService, path, target)


@pytest.mark.parametrize("target, error", _TARGETS, ids=_TARGET_IDS)
def test_accumulator_collect_into_unknown_or_dead_handle_raises(ideal4, target,
                                                                error):
    """A collect into a gid that never existed used to say "not placed
    yet"."""
    if error is None:
        assert Kernel(ideal4).run(_AsksAService, "collect", target).result == (
            _ANSWERS["collect"])
        return
    with pytest.raises(RoutingError, match=re.escape(error)):
        Kernel(ideal4).run(_AsksAService, "collect", target)


class _SendsToTheDead(Chare):
    def __init__(self, timed):
        self.timed = timed
        self.create(_Gone, self.thishandle, pe=1)

    @entry
    def gone(self, handle):
        try:
            if self.timed:
                self.send_at(self._kernel.now, handle, "anything")
            else:
                self.send(handle, "anything")
        except RoutingError as exc:
            self.exit(str(exc))


@pytest.mark.parametrize("timed", [False, True], ids=["send", "send_at"])
def test_send_to_a_destroyed_chare_raises_at_the_send(ideal4, timed):
    """The kernel keeps no record of a dead chare, yet a send to one is
    still an error naming it — raised in the sending entry method now, not
    when the message reaches the dead chare's PE."""
    result = Kernel(ideal4).run(_SendsToTheDead, timed)
    what = "timed send" if timed else "send"
    assert result.result == (
        f"{what} to chare ChareHandle(1): destroyed, retired, or its class "
        "declares no entry method")


class _SendsToAnUnaddressableSeed(Chare):
    def __init__(self, timed):
        seed = self.create(_Unaddressable)      # balanced: still in flight
        try:
            if timed:
                self.send_at(1e-3, seed, "anything")
            else:
                self.send(seed, "anything")
        except RoutingError as exc:
            self.exit(str(exc))


@pytest.mark.parametrize("timed", [False, True], ids=["send", "send_at"])
def test_send_to_an_entry_less_seed_raises_at_the_send(ipsc8, timed):
    """An entry-less seed is given no address, so a send to it fails in the
    sending execution, while the seed is still being balanced.  It used to
    be buffered and fail when it reached the retired chare (a send), or to
    fail as sent "before placement" (a timed send)."""
    result = Kernel(ipsc8).run(_SendsToAnUnaddressableSeed, timed)
    what = "timed send" if timed else "send"
    assert result.result == (
        f"{what} to chare ChareHandle(1): destroyed, retired, or its class "
        "declares no entry method")


# ------------------------------- (c') an entry-less seed is never addressed
class _WatchedPlacement(dict):
    """A placement table that notes every write of an entry-less gid."""

    def __init__(self):
        super().__init__()
        self.entry_less = set()
        self.writes = 0
        self.violations = []

    def __setitem__(self, gid, pe):
        self.writes += 1
        if gid in self.entry_less:
            self.violations.append(gid)
        super().__setitem__(gid, pe)


class _WatchedKernel(Kernel):
    """Tells the table which gids belong to entry-less classes, as each is
    allocated; every write into the table happens after that."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.placement = _WatchedPlacement()

    def api_create(self, chare_cls, args, pe, priority):
        if not declares_entry(chare_cls):
            self.placement.entry_less.add(self._next_gid)
        return super().api_create(chare_cls, args, pe, priority)


@pytest.mark.parametrize("app, queueing", [
    ("nqueens", "fifo"), ("tsp", "fifo"), ("tsp", "prio")])
def test_placement_never_holds_an_entry_less_gid(monkeypatch, app, queueing):
    """Every search node is entry-less: across a whole run none of them
    (537 to 1,258 here), waiting in a pool or running, is ever written
    into ``Kernel.placement``, while the main chare still is."""
    machine = make_machine("ipsc2", 8)
    if app == "nqueens":
        import repro.apps.nqueens as module
        monkeypatch.setattr(module, "Kernel", _WatchedKernel)
        (solutions, _), result = run_nqueens(machine, n=8, grainsize=3,
                                             queueing=queueing)
        assert solutions == 92
    else:
        import repro.apps.tsp as module
        monkeypatch.setattr(module, "Kernel", _WatchedKernel)
        inst = TspInstance.random(8, 0)
        (best, _, _), result = module.run_tsp(
            machine, inst=inst, queueing=queueing, grain=2, bound_slack=1.5)
        assert best == tsp_seq(inst)[0]
    table = result.kernel.placement
    assert type(table) is _WatchedPlacement
    assert len(table.entry_less) >= 500 and table.writes >= 1
    assert table.violations == []
    assert list(table) == list(result.kernel.chares)


# -------------------------------------------------------------- (d) close()
def test_kernel_run_keeps_the_kernel_live_and_close_is_idempotent(ideal4):
    kernel = Kernel(ideal4, trace_events="all")
    result = kernel.run(Spawner, Listener, True)
    assert result.kernel is kernel
    assert len(kernel.events.rows) > 0
    assert kernel.sharing.mono_updates_sent == 0
    kernel.close()
    assert vars(kernel) == {}
    kernel.close()
    assert result.time > 0.0 and result.events > 0    # the result is plain


class ExitsUnderDetection(Chare):
    """Exits while the quiescence detector's wave timer is still armed."""

    def __init__(self):
        self.start_quiescence(self.thishandle, "quiet")
        self.send(self.thishandle, "tick", 0)

    @entry
    def tick(self, i):
        self.charge(2000)
        if i == 40:
            self.exit(i)
        else:
            self.send(self.thishandle, "tick", i + 1)

    @entry
    def quiet(self):
        raise AssertionError("never quiescent before the exit")


@pytest.mark.parametrize("faults", [None, FaultConfig(drop_prob=0.05)])
def test_closed_kernel_dies_by_reference_count(faults):
    """Pending timer events hold bound callbacks and a fault layer's
    callbacks point at itself; close() has to undo both."""
    with collector_disabled():
        kernel = Kernel(make_machine("ipsc2", 4), faults=faults)
        result = kernel.run(ExitsUnderDetection)
        assert len(kernel.engine._heap) > 0
        ref = weakref.ref(kernel)
        kernel.close()
        del kernel, result
        assert ref() is None
        assert gc.collect() == 0


# ------------------------------------------- (e) self-recursive closures
# (best, nodes) of the parent commit's implementations on the same draws.
TSP_SEQ = [(165, 67), (227, 125), (240, 297), (255, 671), (153, 20),
           (259, 131), (263, 68), (305, 210), (167, 43), (235, 59),
           (251, 154), (271, 205), (178, 76), (266, 82), (262, 226),
           (252, 280), (163, 44), (199, 110), (228, 116), (232, 683)]
KNAPSACK_SEQ = [(106, 19), (132, 38), (133, 83), (131, 40), (180, 72),
                (120, 30), (126, 99), (121, 38), (156, 162), (168, 78),
                (131, 41), (141, 28), (153, 22), (198, 25), (171, 49),
                (100, 34), (123, 59), (197, 49), (119, 44), (188, 65)]
KNAPSACK_TAIL = [(106, 17), (132, 36), (133, 81), (131, 38), (180, 70),
                 (120, 28), (126, 63), (121, 36), (155, 142), (168, 76),
                 (131, 39), (141, 26), (153, 20), (198, 23), (171, 47),
                 (100, 32), (123, 57), (197, 47), (119, 42), (188, 63)]


def _tsp(s):
    return tsp_seq(TspInstance.random(6 + s % 4, s))


def _knapsack(s):
    return knapsack_seq(KnapsackInstance.random(12 + s % 5, s))


def _knapsack_tail(s):
    # As KnapsackNode calls it: below the node that took item 0.
    inst = KnapsackInstance.random(12 + s % 5, s)
    return KnapsackNode._solve_seq(inst, 1, inst.weights[0], inst.values[0],
                                   inst.values[0])


@pytest.mark.parametrize("solve, expected", [
    (_tsp, TSP_SEQ), (_knapsack, KNAPSACK_SEQ),
    (_knapsack_tail, KNAPSACK_TAIL),
], ids=["tsp._solve_subtree", "knapsack_seq", "KnapsackNode._solve_seq"])
def test_sequential_searches_leave_no_cycles(solve, expected):
    solve(0)                        # warm cached properties
    with collector_disabled():
        got = [solve(s) for s in range(len(expected))]
        assert gc.collect() == 0
    assert got == expected
