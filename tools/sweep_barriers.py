"""What a pooled sweep loses to the barrier after each of its batches.

    PYTHONPATH=src python3 tools/sweep_barriers.py
    PYTHONPATH=src python3 tools/sweep_barriers.py --side-by-side

The first form runs the ``tables`` experiments at paper scale, one batch
per experiment, through a two-worker
:class:`~repro.bench.parallel.SweepExecutor` with a cold result cache (what
the ledger's ``sweep_jobs2`` pass runs; ``python -m repro.bench`` submits
its whole ``--exp`` list as one batch instead) and records the
wall time of every batch and the host time of every run it executes (the
cold cache still answers a descriptor an earlier experiment ran).  It replays
those run times through list schedules on the same number of workers:

* each batch alone, runs in submission order (what the executor does),
* each batch alone, longest run first,
* all runs as one plan with no barrier: the bound ``max(longest run,
  sum / workers)``, which no ordering can beat.

It also reports the pool workers' CPU time over their run time (near 1.0
means the workers were not starved of a core).

``--side-by-side`` asks what two workers cost each other on this host: it
runs one serial ``tables`` pass alone, then two independent ones at once,
each in its own process, and compares host time per entry-method execution.

Every number is host time and moves with the machine's load; take a few
readings.
"""

from __future__ import annotations

import argparse
import heapq
import json
import multiprocessing
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from repro.bench.cache import ResultCache
from repro.bench.experiments import run_experiments
from repro.bench.parallel import SweepExecutor

#: The ``tables`` workload's experiments (``ledger/workloads.py``).
TABLES = ("a1", "a3", "a4", "a5", "f1", "f2", "f3", "r1", "r2", "t1", "t10",
          "t11", "t2", "t3", "t4", "t5", "t8", "t9")

#: Pool workers, as in the ledger's ``sweep_jobs2`` workload.
JOBS = 2


def makespan(times, jobs: int) -> float:
    """Finish time of a list schedule: each run, in order, goes to the
    worker that frees up first."""
    free = [0.0] * jobs
    for t in times:
        heapq.heapreplace(free, free[0] + t)
    return max(free)


def execs(row) -> int:
    return sum(pe.msgs_executed + pe.seeds_executed + pe.system_executed
               for pe in row.stats.pe_rows)


class HitCache(ResultCache):
    """A ``ResultCache`` that remembers which descriptors it answered."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.hit_ids = set()

    def get(self, desc):
        row = super().get(desc)
        if row is not None:
            self.hit_ids.add(id(desc))
        return row


class BatchTimer:
    """Wraps the sweep executor: times each batch, keeps the
    host seconds and executions of each run it executed (a cache hit
    replays a row of an earlier batch and costs no run)."""

    def __init__(self, executor: SweepExecutor) -> None:
        self.executor = executor
        #: One (batch wall seconds, [run host seconds]) per batch.
        self.batches = []
        self.execs = 0

    def run_many(self, descs, label: str = ""):
        cache = self.executor.cache
        if cache is not None:
            cache.hit_ids.clear()     # ids of freed descriptors get reused
        start = time.perf_counter()
        rows = self.executor.run_many(descs, label=label)
        wall = time.perf_counter() - start
        ran = [row for desc, row in zip(descs, rows)
               if cache is None or id(desc) not in cache.hit_ids]
        self.batches.append((wall, [row.host_seconds for row in ran]))
        self.execs += sum(execs(row) for row in ran)
        return rows


def sweep(jobs: int, cached: bool) -> BatchTimer:
    cache_dir = tempfile.mkdtemp(prefix="sweep_barriers_") if cached else None
    executor = SweepExecutor(
        jobs=jobs, cache=HitCache(cache_dir) if cached else None)
    timer = BatchTimer(executor)
    try:
        with executor:
            for exp_id in TABLES:
                run_experiments([exp_id], "paper", timer)
    finally:
        for worker in multiprocessing.active_children():
            worker.join()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return timer


def barriers() -> None:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    timer = sweep(JOBS, cached=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    runs = [t for _, times in timer.batches for t in times]
    print(f"{len(timer.batches)} batches, {len(runs)} runs executed on "
          f"{JOBS} workers, pass wall {wall:.2f} s")
    batch_walls = sum(w for w, _ in timer.batches)
    fifo = sum(makespan(times, JOBS) for _, times in timer.batches)
    lpt = sum(makespan(sorted(times, reverse=True), JOBS)
              for _, times in timer.batches)
    bound = max(max(runs), sum(runs) / JOBS)
    worker_cpu = (after.ru_utime - before.ru_utime
                  + after.ru_stime - before.ru_stime)
    # A batch of one run executes inline, in this process.
    pooled = sum(sum(times) for _, times in timer.batches if len(times) > 1)
    print(f"  sum of run host times             {sum(runs):7.2f} s")
    print(f"  sum of batch walls (measured)     {batch_walls:7.2f} s")
    print(f"  batches, submission order         {fifo:7.2f} s")
    print(f"  batches, longest run first        {lpt:7.2f} s")
    print(f"  one plan, bound max(longest, sum/{JOBS}) {bound:5.2f} s")
    print(f"  at most saved by one plan         "
          f"{1 - bound / batch_walls:7.1%} of the batch walls")
    print(f"  at most saved by longest first    {1 - lpt / fifo:7.1%}")
    print(f"  worker CPU / run host time        "
          f"{worker_cpu / pooled:7.2f}")


def serial_pass() -> None:
    """One serial ``tables`` pass; prints its host time per execution."""
    timer = sweep(1, cached=False)
    runs = [t for _, times in timer.batches for t in times]
    print(json.dumps({"us_per_exec": sum(runs) / timer.execs * 1e6}))


def side_by_side() -> None:
    cmd = [sys.executable, __file__, "--serial-pass"]

    def per_exec(count: int):
        procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                  env=os.environ) for _ in range(count)]
        return [json.loads(p.communicate()[0].splitlines()[-1])["us_per_exec"]
                for p in procs]

    # Alone before and after the pair, so a drift in the host's speed
    # shows up in neither reading alone.
    (first,) = per_exec(1)
    pair = per_exec(2)
    (last,) = per_exec(1)
    alone = (first + last) / 2
    both = sum(pair) / len(pair)
    print(f"tables, serial: {alone:.1f} us/exec alone, "
          f"{both:.1f} us/exec with two passes side by side "
          f"({both / alone - 1:+.0%})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side-by-side", action="store_true")
    parser.add_argument("--serial-pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serial_pass:
        serial_pass()
    elif args.side_by_side:
        side_by_side()
    else:
        barriers()


if __name__ == "__main__":
    main()
