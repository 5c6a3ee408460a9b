"""One timed pass of a workload, in this process.

A pass runs the repo's own experiment functions through the repo's own
``SweepExecutor``; the ledger only stands between the experiments and the
executor (:class:`Submitter`) to shift seeds, time the calls and check
every returned row.  Its own bookkeeping is timed and taken off the
reported wall time.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import os
import resource
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.bench.cache import ResultCache
from repro.bench.experiments import run_experiment
from repro.bench.parallel import SweepExecutor, SweepRunError, use_executor

from ledger import ROOT
from ledger.layers import layer_profile
from ledger.stats import percentile
from ledger.workloads import (COUNTERS, WORKLOADS, fingerprint_digest,
                              load_reference, seed_shift)


class Recorder:
    """What one pass saw: spans, row fingerprints, counters, failures."""

    def __init__(self, shift: int, reference: Optional[Dict[str, list]]) -> None:
        #: Added to the seed of every submitted run.
        self.shift = shift
        #: Seed-0 fingerprints to verify rows against (None: do not verify).
        self.reference = reference
        #: [id, parent id, kind, name, start_s, end_s]; a run span has no
        #: start of its own, only a duration (``MeasureRow.host_seconds``).
        self.spans: List[list] = []
        self.run_seconds: List[float] = []
        #: Entry-method executions of the runs in ``run_seconds``.
        self.run_execs = 0
        self.fingerprints: Dict[str, list] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []
        #: Host seconds the ledger itself spent inside the timed pass.
        self.self_s = 0.0
        self.origin = time.perf_counter()
        self._open: List[int] = []

    # ------------------------------------------------------------------ spans
    def begin(self, kind: str, name: str) -> None:
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([span_id, parent, kind, name,
                           time.perf_counter() - self.origin, None])
        self._open.append(span_id)

    def end(self) -> None:
        self.spans[self._open.pop()][5] = time.perf_counter() - self.origin

    # ------------------------------------------------------------------- rows
    def fail(self, label: str, reason: str) -> None:
        self.failures.append((label, reason))

    def harvest(self, desc, row, executed: bool) -> None:
        """Fingerprint, check and count one returned row."""
        self.attempted += 1
        stats = row.stats
        msgs = seeds = system = sent = nbytes = created = pool = 0
        for pe in stats.pe_rows:
            msgs += pe.msgs_executed
            seeds += pe.seeds_executed
            system += pe.system_executed
            sent += pe.msgs_sent
            nbytes += pe.bytes_sent
            created += pe.seeds_created
            if pe.max_pool > pool:
                pool = pe.max_pool
        fingerprint = [desc.label(), row.vtime.hex(), stats.counted_sent,
                       stats.counted_processed, stats.total_message_hops,
                       msgs, seeds, system, bool(row.truncated)]
        key = desc.key()
        if self.fingerprints.setdefault(key, fingerprint) != fingerprint:
            self.fail(desc.label(), "two runs of one descriptor differ")
        if row.truncated:
            self.fail(desc.label(), "truncated")
        elif stats.counted_sent != stats.counted_processed:
            self.fail(desc.label(), "counted_sent != counted_processed")
        elif self.reference is not None:
            expected = self.reference.get(key)
            if expected is None:
                self.fail(desc.label(), "descriptor not in reference.json")
            elif expected != fingerprint:
                self.fail(desc.label(), f"simulated fingerprint {fingerprint[1:]}"
                          f" differs from reference {expected[1:]}")
        c = self.counters
        c["core.execs"] += msgs + seeds + system
        c["core.msgs_sent"] += sent
        c["core.bytes_sent"] += nbytes
        c["core.seeds_created"] += created
        c["machine.msg_hops"] += stats.total_message_hops
        c["queueing.max_pool"] = max(c["queueing.max_pool"], pool)
        c["balance.control_msgs"] += stats.lb_control_msgs
        c["balance.seeds_remote"] += stats.lb_seeds_remote
        c["sharing.mono_updates_sent"] += stats.mono_updates_sent
        c["sharing.mono_updates_applied"] += stats.mono_updates_applied
        c["quiescence.waves"] += stats.qd_waves
        c["faults.retries"] += stats.retries
        c["faults.msgs_dropped"] += stats.msgs_dropped
        if row.result is not None:
            # Only runs executed in this process still carry the engine's
            # event count; rows from a worker or the cache do not.
            c["sim.events"] += row.result.events
        if executed:
            self.spans.append([len(self.spans), self._open[-1], "run",
                               fingerprint[0], None, row.host_seconds])
            self.run_seconds.append(row.host_seconds)
            self.run_execs += msgs + seeds + system


class Submitter:
    """Stands in for the ambient ``SweepExecutor`` during a pass.

    Adds the pass's seed shift to every descriptor's seed, so the program
    only ever sees generated inputs, and hands each returned row to the
    recorder.
    """

    def __init__(self, executor, recorder: Recorder) -> None:
        self.executor = executor
        self.recorder = recorder

    def run_many(self, descs, label: str = ""):
        rec = self.recorder
        entered = time.perf_counter()
        descs = [replace(d, seed=d.seed + rec.shift) for d in descs]
        cache = self.executor.cache
        if cache is not None:
            cache.hit_ids.clear()
        rec.begin("batch", label)
        rec.self_s += time.perf_counter() - entered
        try:
            rows = self.executor.run_many(descs, label=label)
        except SweepRunError as exc:
            rec.end()
            rec.attempted += len(descs)
            for desc, error in exc.failures:
                rec.fail(desc.label(), str(error))
            raise
        returned = time.perf_counter()
        replayed = set(cache.hit_ids) if cache is not None else ()
        for desc, row in zip(descs, rows):
            rec.harvest(desc, row, executed=id(desc) not in replayed)
        rec.end()
        rec.self_s += time.perf_counter() - returned
        return rows


class TrackingCache(ResultCache):
    """A ``ResultCache`` that also says which lookups it answered."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.hit_ids: List[int] = []

    def get(self, desc):
        row = super().get(desc)
        if row is not None:
            self.hit_ids.append(id(desc))
        return row


def run_sweep(rec: Recorder, experiments, scale: str, jobs: int,
              cache_dir: Optional[str]) -> None:
    """``python -m repro.bench --exp ... --scale ... --jobs ...`` with a
    fresh executor (and cache handle), routed through the recorder."""
    cache = TrackingCache(cache_dir) if cache_dir is not None else None
    executor = SweepExecutor(jobs=jobs, cache=cache)
    try:
        with executor, use_executor(Submitter(executor, rec)):
            for exp_id in experiments:
                rec.begin("experiment", exp_id)
                try:
                    run_experiment(exp_id, scale=scale)
                except SweepRunError:
                    pass  # the submitter already counted its failed runs
                except Exception as exc:  # an experiment's own check failed
                    rec.attempted += 1
                    rec.fail(exp_id, f"{type(exc).__name__}: {exc}")
                finally:
                    rec.end()
    finally:
        # The pool is shut down without waiting; reap the workers so that
        # none outlives the pass and their peak memory can be read.
        for worker in multiprocessing.active_children():
            worker.join()
    rec.counters["bench.runs_executed"] += executor.runs_executed
    rec.counters["bench.runs_cached"] += executor.runs_cached
    if cache is not None:
        rec.counters["bench.cache_stores"] += cache.stores


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def run_child(name: str, seed: int, spawned_at: float, *, profile: bool,
              setup_only: bool, verify: bool, keep_spans: bool,
              cpus: Optional[Set[int]] = None) -> Dict[str, Any]:
    """Set up, then run one timed pass of workload ``name``; the result is
    plain data for the parent process.  ``cpus`` is what a pass with a
    worker pool may run on once set-up is over (None: leave affinity alone).
    """
    workload = WORKLOADS[name]
    shift = seed_shift(seed)
    # Set-up, as a user of the bench CLI pays it: import the simulator and
    # its apps, run one small experiment, and for ``replay`` fill the cache.
    run_experiment("t9", scale="quick")
    cache_dir = None
    if workload.cache:
        cache_dir = tempfile.mkdtemp(prefix=".ledger_tmp_", dir=ROOT)
    try:
        if workload.replays:
            filled = Recorder(shift, None)
            run_sweep(filled, workload.experiments, workload.scale, 1, cache_dir)
            if filled.failures:
                raise RuntimeError(f"replay set-up failed: {filled.failures[:3]}")
        reference = load_reference()["runs"] if verify and shift == 0 else None
        setup_s = time.time() - spawned_at
        out: Dict[str, Any] = {"workload": name, "seed": seed, "setup_s": setup_s,
                               # What set-up alone needs; the pass adds the rest.
                               "base_rss_mb": peak_rss_mb()}
        if setup_only:
            return out

        if cpus is not None and workload.jobs > 1:
            os.sched_setaffinity(0, cpus)
        rec = Recorder(shift, reference)
        profiler = cProfile.Profile() if profile else None
        rec.begin("pass", name)
        if profiler is not None:
            profiler.enable()
        try:
            for _ in range(workload.replays or 1):
                if workload.replays:
                    rec.begin("replay", name)
                run_sweep(rec, workload.experiments, workload.scale,
                          workload.jobs, cache_dir)
                if workload.replays:
                    rec.end()
        finally:
            if profiler is not None:
                profiler.disable()
        rec.end()
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    pass_s = rec.spans[0][5] - rec.spans[0][4]
    wall_s = pass_s - rec.self_s
    run_total = sum(rec.run_seconds)
    out.update({
        "wall_s": wall_s,
        # Work done, so that speed compares across seeds (the amount of
        # speculative search differs by seed): entry-method executions
        # simulated, or rows served when the pass simulates nothing.
        "ops": rec.attempted if workload.replays else rec.run_execs,
        "ledger_self_s": rec.self_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "failures": rec.failures[:20],
        "counters": rec.counters,
        "span_metrics": {
            # With two workers the run spans overlap in pairs at best.
            "bench.harness_self_s": wall_s - run_total / workload.jobs,
            "bench.run_host_p50_ms": percentile(rec.run_seconds, 50) * 1e3,
            "bench.run_host_p95_ms": percentile(rec.run_seconds, 95) * 1e3,
            "core.us_per_exec": (run_total / rec.run_execs * 1e6
                                 if rec.run_execs else 0.0),
        },
        "fingerprints": rec.fingerprints,
        "fingerprint_digest": fingerprint_digest(rec.fingerprints),
    })
    if keep_spans:
        out["spans"] = rec.spans
    if profiler is not None:
        out["layers"] = layer_profile(profiler)
    return out
