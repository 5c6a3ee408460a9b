"""Process-pool sweep executor for the experiment suite.

The experiment registry plans each table/figure as independent
:class:`~repro.bench.descriptors.RunDescriptor`\\ s, and
``run_experiments`` submits the union of a sweep's plans here as one
batch.  The executor:

* replays every descriptor already present in the result cache,
* runs the misses either inline (``jobs=1`` — bit-for-bit the historical
  serial path, same process, same order) or on a pool of warm worker
  processes reused across batches,
* isolates per-run failures: a worker that raises reports the failing
  descriptor and the rest of the batch still completes, after which a
  single :class:`SweepRunError` names every casualty,
* emits progress/ETA events for the bench CLI.

It runs what it is given and nothing else: what a run records is in its
descriptor's params, and the bench CLI writes a sweep's exports from the
rows it returns.

Because every run is deterministic virtual time, the parallel schedule
cannot change any result — the determinism-guard tests assert the
``--jobs N`` tables are byte-identical to serial.

The module-level *current executor* (see :func:`use_executor`) is what
``run_experiment`` submits to: a plain serial executor unless a caller
installs another.  The performance ledger's passes install theirs this
way; the bench CLI submits its sweep's batch to its own executor.
"""

from __future__ import annotations

import gc
import math
import os
import time
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.cache import ResultCache
from repro.bench.descriptors import RunDescriptor
from repro.util.errors import ConfigurationError, need_int

__all__ = ["SweepExecutor", "SweepRunError", "current_executor",
           "use_executor", "default_jobs"]

#: Per-run wall-clock budget (seconds) before the batch is declared stuck.
DEFAULT_TIMEOUT = 600.0


def default_jobs() -> int:
    return os.cpu_count() or 1


class SweepRunError(RuntimeError):
    """One or more descriptors failed; carries (descriptor, error) pairs."""

    def __init__(self, failures: Sequence[tuple]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep run(s) failed:"]
        for desc, error in self.failures:
            label = desc.label() if isinstance(desc, RunDescriptor) else str(desc)
            lines.append(f"  - {label}: {error}")
        super().__init__("\n".join(lines))


def _run_descriptor_guarded(desc: RunDescriptor):
    """Execute one descriptor, inline or in a pool worker; never raise.

    Returns ``("ok", row)``, or ``("err", message, traceback)`` so the
    executor can report the failing descriptor without losing the rest of
    the batch.
    """
    try:
        from repro.bench.harness import run_descriptor

        return ("ok", run_descriptor(desc))
    except Exception as exc:
        return ("err", f"{type(exc).__name__}: {exc}", traceback.format_exc())


class SweepExecutor:
    """Executes descriptor batches with caching, parallelism and isolation.

    ``jobs=1`` never creates a pool: misses run inline via the exact same
    call path the harness used before this executor existed.  ``jobs>1``
    lazily creates one ``ProcessPoolExecutor`` and keeps its workers warm
    for every subsequent batch until :meth:`close`.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        timeout: float = DEFAULT_TIMEOUT,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        # Not max(1, int(jobs)): 0 or 2.7 workers is a mistake to report,
        # not a number to round.
        self.jobs = (default_jobs() if jobs is None
                     else need_int("jobs", jobs, 1))
        self.cache = cache
        if not (math.isfinite(timeout) and timeout > 0):
            # Zero or less would report every pooled run as stuck, far from
            # here; NaN and inf are not budgets.
            raise ConfigurationError(
                f"timeout must be a positive number of seconds, got {timeout}"
            )
        self.timeout = timeout
        self.progress = progress
        self._pool = None
        # Lifetime totals, for the CLI/CI summary.
        self.runs_executed = 0
        self.runs_cached = 0
        self.batches = 0
        self.wall_s = 0.0
        # The collector's counters when the sweep began; summary() reports
        # what it did since (reading them costs nothing per collection,
        # which a gc.callbacks hook would).
        self._gc_before = gc.get_stats()

    # -------------------------------------------------------------- lifecycle
    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             mp_context=ctx)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- execution
    def run_many(self, descs: Sequence[RunDescriptor], label: str = "") -> List[Any]:
        """Execute a batch; results are returned in input order."""
        started = time.perf_counter()
        self.batches += 1
        try:
            rows: List[Any] = [None] * len(descs)
            pending: List[int] = []
            cached = 0
            for i, desc in enumerate(descs):
                row = self.cache.get(desc) if self.cache is not None else None
                if row is not None:
                    rows[i] = row
                    cached += 1
                else:
                    pending.append(i)
            self.runs_cached += cached
            self._report(label, done=cached, total=len(descs), cached=cached,
                         eta_s=None, final=not pending)
            if pending:
                inline = self.jobs == 1 or len(pending) == 1
                # Inline is the historical serial path: same process, same
                # submission order.
                outcomes = (((i, _run_descriptor_guarded(descs[i]))
                             for i in pending) if inline
                            else self._pooled(descs, pending))
                self._collect(outcomes, descs, rows, len(pending), label,
                              cached, 1 if inline else self.jobs)
        finally:
            self.wall_s += time.perf_counter() - started
        return rows

    def _collect(self, outcomes, descs, rows, total, label, cached,
                 workers) -> None:
        """Store each ``(index, outcome)`` as it completes: the row, its
        cache entry, the run count and a progress event; then raise one
        :class:`SweepRunError` naming every failed run."""
        started = time.perf_counter()
        failures = []
        for n, (i, outcome) in enumerate(outcomes, start=1):
            if outcome[0] == "ok":
                rows[i] = outcome[1]
                if self.cache is not None:
                    self.cache.put(descs[i], outcome[1])
                self.runs_executed += 1
            else:
                failures.append((descs[i], outcome[1]))
            elapsed = time.perf_counter() - started
            eta = elapsed / n * (total - n) / workers
            self._report(label, done=cached + n, total=len(rows),
                         cached=cached, eta_s=eta, final=n == total)
        if failures:
            raise SweepRunError(failures)

    def _pooled(self, descs, pending):
        """Submit every run to the pool; yield outcomes as runs complete.

        A broken pool or a stuck batch ends the stream with error
        outcomes for the runs it takes down.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        futures = {}
        try:
            for i in pending:
                futures[pool.submit(_run_descriptor_guarded, descs[i])] = i
        except BrokenProcessPool:
            self.close()
            for i in pending:
                yield i, ("err", "worker pool broke before submission")
            return
        remaining = set(futures)
        while remaining:
            finished, remaining = wait(remaining, timeout=self.timeout,
                                       return_when=FIRST_COMPLETED)
            if not finished:
                # Per-run budget exhausted with nothing completing: report
                # exactly which descriptors are stuck instead of hanging.
                for f in remaining:
                    f.cancel()
                self.close()
                for f in remaining:
                    yield futures[f], (
                        "err", f"no completion within {self.timeout:.0f}s")
                return
            for future in finished:
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # A worker died hard (segfault/OOM): name the run it held.
                    self.close()
                    yield futures[future], ("err", "worker process died")
                    return
                yield futures[future], outcome

    # -------------------------------------------------------------- reporting
    def _report(self, label, *, done, total, cached, eta_s, final) -> None:
        if self.progress is not None and total:
            self.progress({"label": label, "done": done, "total": total,
                           "cached": cached, "eta_s": eta_s, "final": final})

    def summary(self) -> Dict[str, Any]:
        import resource

        # Peak resident set of this process or any reaped pool worker
        # (ru_maxrss is KB on Linux), as the performance ledger takes it.
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF,
                                  resource.RUSAGE_CHILDREN))
        out = {
            "jobs": self.jobs,
            "batches": self.batches,
            "runs_executed": self.runs_executed,
            "runs_cached": self.runs_cached,
            "wall_s": round(self.wall_s, 3),
            "peak_rss_mb": round(peak_kb / 1024.0, 1),
            # Per generation, since this executor was built.  ``collected``
            # is what only the cycle collector could free: finished runs
            # die by reference count, so it stays near zero however many
            # runs the sweep executes.
            "gc": {
                key: [now[key] - before[key] for before, now
                      in zip(self._gc_before, gc.get_stats())]
                for key in ("collections", "collected")
            },
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


# -------------------------------------------------------- ambient executor
#: Installed by ``use_executor``; ``None`` means plain serial.
_current: Optional[SweepExecutor] = None
#: The fallback serial executor: ``run_experiment()`` outside any
#: ``use_executor`` block runs its batch inline.
_default = SweepExecutor(jobs=1)


def current_executor() -> SweepExecutor:
    return _current if _current is not None else _default


@contextmanager
def use_executor(executor: SweepExecutor):
    """Route ``run_experiment`` through ``executor`` in this block."""
    global _current
    previous = _current
    _current = executor
    try:
        yield executor
    finally:
        _current = previous
