"""Process-pool sweep executor for the experiment suite.

The experiment registry decomposes each table/figure into a batch of
independent :class:`~repro.bench.descriptors.RunDescriptor`\\ s and
submits them here.  The executor:

* replays every descriptor already present in the result cache,
* runs the misses either inline (``jobs=1`` — bit-for-bit the historical
  serial path, same process, same order) or on a pool of warm worker
  processes reused across batches,
* isolates per-run failures: a worker that raises reports the failing
  descriptor and the rest of the batch still completes, after which a
  single :class:`SweepRunError` names every casualty,
* emits progress/ETA events for the bench CLI.

Because every run is deterministic virtual time, the parallel schedule
cannot change any result — the determinism-guard tests assert the
``--jobs N`` tables are byte-identical to serial.

The module-level *current executor* (see :func:`use_executor`) is how the
existing ``measure()``/``speedup_sweep()`` APIs route through the pool
without threading an executor argument through every experiment: the
default is a plain serial executor, so library users and tests keep
today's behaviour unless a CLI (or test) installs a parallel one.
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
    """Worker-side entry point: execute one descriptor, never raise.

    Returns ``("ok", row)``, or ``("err", message, traceback)`` so the
    parent can report the failing descriptor without losing the rest of
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
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
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
        #: Directory for structured-event exports: every completed row that
        #: carries a trace payload is written there as a ``.run.json``
        #: (events + sampled metrics) plus a ``.perfetto.json`` twin.
        self.trace_out = trace_out
        #: Directory for telemetry exports: every completed row that
        #: carries a telemetry payload is written there as a
        #: ``.metrics.jsonl`` stream plus a ``.prom`` scrape twin, with a
        #: one-line run-health digest on stderr.
        self.metrics_out = metrics_out
        self._pool = None
        # Lifetime totals, for the CLI/CI summary.
        self.runs_executed = 0
        self.runs_cached = 0
        self.batches = 0
        self.wall_s = 0.0
        self.traces_written = 0
        self.metrics_written = 0
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
    def run_one(self, desc: RunDescriptor, label: str = ""):
        return self.run_many([desc], label=label)[0]

    def run_many(self, descs: Sequence[RunDescriptor], label: str = "") -> List[Any]:
        """Execute a batch; results are returned in input order."""
        started = time.perf_counter()
        self.batches += 1
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
            if self.jobs == 1 or len(pending) == 1:
                self._run_inline(descs, rows, pending, label, cached)
            else:
                self._run_pooled(descs, rows, pending, label, cached)
            self.runs_executed += len(pending)
        if self.trace_out is not None:
            self._write_traces(descs, rows)
        if self.metrics_out is not None:
            self._write_metrics(descs, rows)
        self.wall_s += time.perf_counter() - started
        return rows

    def _write_traces(self, descs, rows) -> None:
        """Export every traced row of the batch under ``trace_out``.

        Cached replays are exported too (their payload travels with the
        row), so re-running a traced sweep always regenerates its files.
        """
        import json
        import re

        os.makedirs(self.trace_out, exist_ok=True)
        for desc, row in zip(descs, rows):
            trace = getattr(row, "trace", None)
            if trace is None:
                continue
            from repro.metrics import sample_metrics
            from repro.trace.perfetto import write_perfetto

            doc = dict(trace)
            doc["metrics"] = sample_metrics(
                doc["events"],
                num_pes=doc["meta"].get("num_pes"),
                t_end=doc["meta"].get("total_time"),
            )
            stem = re.sub(r"[^A-Za-z0-9._-]+", "-", desc.label()).strip("-")
            stem = f"{stem}-{desc.key()[:8]}"
            run_path = os.path.join(self.trace_out, stem + ".run.json")
            with open(run_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
                fh.write("\n")
            write_perfetto(
                os.path.join(self.trace_out, stem + ".perfetto.json"),
                doc["events"], meta=doc["meta"], metrics=doc["metrics"],
            )
            self.traces_written += 1

    def _write_metrics(self, descs, rows) -> None:
        """Export every telemetered row of the batch under ``metrics_out``.

        Like traces, cached replays export too — the payload is plain data
        riding on the row.  Each run gets the archival JSONL stream, a
        Prometheus text scrape, and one health line on stderr (the live
        watchdog view of how the run ended).
        """
        import re
        import sys

        from repro.obs import RunHealth, to_jsonl, to_prometheus

        os.makedirs(self.metrics_out, exist_ok=True)
        for desc, row in zip(descs, rows):
            payload = getattr(row, "telemetry", None)
            if payload is None:
                continue
            stem = re.sub(r"[^A-Za-z0-9._-]+", "-", desc.label()).strip("-")
            stem = f"{stem}-{desc.key()[:8]}"
            path = os.path.join(self.metrics_out, stem + ".metrics.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_jsonl(payload))
            with open(os.path.join(self.metrics_out, stem + ".prom"),
                      "w", encoding="utf-8") as fh:
                fh.write(to_prometheus(payload))
            print(f"[{desc.label()}] {RunHealth(payload).format()}",
                  file=sys.stderr)
            self.metrics_written += 1

    def _run_inline(self, descs, rows, pending, label, cached) -> None:
        """The historical serial path: same process, same submission order."""
        from repro.bench.harness import run_descriptor

        started = time.perf_counter()
        failures = []
        for n, i in enumerate(pending, start=1):
            try:
                row = run_descriptor(descs[i])
            except Exception as exc:
                failures.append((descs[i], f"{type(exc).__name__}: {exc}"))
                continue
            rows[i] = row
            if self.cache is not None:
                self.cache.put(descs[i], row)
            elapsed = time.perf_counter() - started
            eta = elapsed / n * (len(pending) - n)
            self._report(label, done=cached + n, total=len(rows),
                         cached=cached, eta_s=eta, final=n == len(pending))
        if failures:
            raise SweepRunError(failures)

    def _run_pooled(self, descs, rows, pending, label, cached) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        started = time.perf_counter()
        futures = {}
        try:
            for i in pending:
                futures[pool.submit(_run_descriptor_guarded, descs[i])] = i
        except BrokenProcessPool:
            self.close()
            raise SweepRunError(
                [(descs[i], "worker pool broke before submission")
                 for i in pending]
            ) from None
        failures = []
        done_count = 0
        remaining = set(futures)
        while remaining:
            finished, remaining = wait(remaining, timeout=self.timeout,
                                       return_when=FIRST_COMPLETED)
            if not finished:
                # Per-run budget exhausted with nothing completing: report
                # exactly which descriptors are stuck instead of hanging.
                stuck = [(descs[futures[f]],
                          f"no completion within {self.timeout:.0f}s")
                         for f in remaining]
                for f in remaining:
                    f.cancel()
                self.close()
                raise SweepRunError(failures + stuck)
            for future in finished:
                i = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # A worker died hard (segfault/OOM): name the run it held.
                    self.close()
                    raise SweepRunError(
                        failures + [(descs[i], "worker process died")]
                    ) from None
                if outcome[0] == "ok":
                    rows[i] = outcome[1]
                    if self.cache is not None:
                        self.cache.put(descs[i], outcome[1])
                else:
                    failures.append((descs[i], outcome[1]))
                done_count += 1
                elapsed = time.perf_counter() - started
                rate = elapsed / done_count
                eta = rate * (len(pending) - done_count) / self.jobs
                self._report(label, done=cached + done_count, total=len(rows),
                             cached=cached, eta_s=eta,
                             final=done_count == len(pending))
        if failures:
            raise SweepRunError(failures)

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
        if self.trace_out is not None:
            out["traces_written"] = self.traces_written
        if self.metrics_out is not None:
            out["metrics_written"] = self.metrics_written
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


# -------------------------------------------------------- ambient executor
#: Installed by the bench CLI (or tests); ``None`` means plain serial.
_current: Optional[SweepExecutor] = None
#: The fallback serial executor — measure()/speedup_sweep() outside any
#: ``use_executor`` block behave exactly as before this module existed.
_default = SweepExecutor(jobs=1)


def current_executor() -> SweepExecutor:
    return _current if _current is not None else _default


@contextmanager
def use_executor(executor: SweepExecutor):
    """Route ``measure``/``measure_many`` through ``executor`` in this block."""
    global _current
    previous = _current
    _current = executor
    try:
        yield executor
    finally:
        _current = previous
