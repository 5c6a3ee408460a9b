"""Host-throughput reporter for the simulator itself.

Measures how fast the *host* machinery runs — engine events/s, kernel
messages/s, seed fan-out/s, pool ops/s — and appends one labelled entry to
``BENCH_sim_throughput.json`` at the repo root, so the perf trajectory of
the simulator is tracked PR over PR (the virtual-time experiment tables in
``repro.bench.experiments`` are unaffected by any of this).

Usage::

    python -m repro.bench.perf --label after-hot-path   # record an entry
    python -m repro.bench.perf --check                  # regression guard
    python -m repro.bench.perf --profile                # cProfile hot paths

``--check`` re-measures and fails (exit 1) if events/s or messages/s fall
more than ``--tolerance`` (default 30%) below the most recent recorded
entry carrying those metrics — the cheap CI guard against accidentally
re-introducing per-event allocation in the hot path.

``--exp-wall`` records the experiment-suite wall-clock family instead:
``exp_all_wall_s_serial`` (the historical one-process outer loop),
``exp_all_wall_s_jobsN`` (the parallel sweep executor cold), and
``exp_all_wall_s_warm_cache`` (a rerun replayed from the result cache)
plus the warm-run cache hit-rate.  Every entry also records host context
(CPU count, 1-minute load average) so wall-clock and throughput numbers
stay interpretable across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from typing import Callable, Dict

__all__ = ["measure_throughput", "measure_exp_wall", "record", "check",
           "profile_hot_paths", "host_context", "DEFAULT_PATH"]

DEFAULT_PATH = "BENCH_sim_throughput.json"

#: Metrics the --check guard enforces (others are informational).  The pool
#: and search metrics guard the prioritized-execution hot path (packed keys,
#: send-time normalization, lane-split pools); ``search_tsp_prio_nodes_per_s``
#: also guards the TSP app body (the row/mask bound).
#: ``engine_events_per_s_p100k`` guards the sparse-PE plane: a full
#: kernel run on a 100,000-PE machine, impossible before per-PE state
#: became O(active) — any O(P) term creeping back into startup, delivery
#: or teardown shows up here first.  ``serving_requests_per_s`` guards the
#: S-series serving stack (open-loop arrivals, per-request tracing, the
#: latency analyzer) end to end on a real preset.
#: ``kernel_telemetry_msgs_per_s`` guards the telemetry plane's hot-path
#: overhead: the same PingPong chain as ``kernel_msgs_per_s`` but with a
#: live metric plane attached — the execution hook, histogram observe, and
#: label-cache hits all in the loop.  The PR-10 contract is that this stays
#: within ~15% of the untelemetered rate; a per-event allocation sneaking
#: into the hook shows up here first.
GUARDED_METRICS = ("engine_events_per_s", "kernel_msgs_per_s",
                   "kernel_seeds_per_s", "pool_prio_ops_per_s",
                   "pool_bitprio_ops_per_s", "search_bitprio_nodes_per_s",
                   "search_tsp_prio_nodes_per_s",
                   "engine_events_per_s_p100k", "serving_requests_per_s",
                   "kernel_telemetry_msgs_per_s")


# --------------------------------------------------------------- measurement
def _best_rate(fn: Callable[[], int], repeats: int = 5) -> float:
    """ops/s over the best of ``repeats`` runs (max-rate, standard practice).

    Each run's op count is paired with *its own* timing — ``fn`` may return
    a different count per run, so pairing the last count with the fastest
    time would fabricate a rate no run achieved.  Runs too fast for the
    clock to resolve (dt == 0) carry no rate information and are skipped;
    if every run degenerates the result is 0.0, not inf (which would poison
    the JSON artifact — ``json.dump`` emits ``Infinity``, invalid JSON).
    """
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = fn()
        dt = time.perf_counter() - t0
        if dt > 0.0:
            best = max(best, ops / dt)
    return best


def _engine_events() -> int:
    from repro.sim.backend import HeapBackend

    eng = HeapBackend()
    schedule_call = eng.schedule_call
    for i in range(10_000):
        schedule_call(float(i % 97), _noop1, None)
    eng.run()
    return eng.events_fired


def _noop0() -> None:
    return None


def _noop1(_arg) -> None:
    return None


def _kernel_messages() -> int:
    from repro import Kernel, make_machine
    from repro.bench._workloads import PingPong

    kernel = Kernel(make_machine("ideal", 1))
    rounds = 2_000
    assert kernel.run(PingPong, rounds).result == rounds
    return rounds


def _kernel_telemetry_messages() -> int:
    """The ``_kernel_messages`` chain with a telemetry plane attached.

    Interval 0.0 (final snapshot only), so the measured delta over
    ``kernel_msgs_per_s`` is purely the per-execution hook cost — the
    overhead figure the telemetry plane's ≥0.85x contract is stated over.
    """
    from repro import Kernel, make_machine
    from repro.bench._workloads import PingPong
    from repro.obs import Telemetry

    kernel = Kernel(make_machine("ideal", 1), telemetry=Telemetry())
    rounds = 2_000
    assert kernel.run(PingPong, rounds).result == rounds
    return rounds


def _seed_fanout(num_pes: int) -> Callable[[], int]:
    def run() -> int:
        from repro import Kernel, make_machine
        from repro.bench._workloads import Fanout

        kernel = Kernel(make_machine("ideal", num_pes), balancer="random")
        seeds = 1_000
        assert kernel.run(Fanout, seeds).result == seeds
        return seeds

    return run


def _sparse_fanout(num_pes: int) -> Callable[[], int]:
    """Full kernel run on a sparse large-P machine; returns events fired.

    The rate is engine events per host second *including* kernel
    construction and teardown — exactly where an accidental O(P) loop
    (eager PE lists, counter arrays, balancer tables) would dominate at
    P=100,000.
    """

    def run() -> int:
        from repro import Kernel, make_machine
        from repro.bench._workloads import Fanout

        kernel = Kernel(make_machine("cluster", num_pes, sparse=True),
                        balancer="random")
        result = kernel.run(Fanout, 1_000)
        assert result.result == 1_000
        return result.events

    return run


def _central_placements(num_pes: int) -> Callable[[], int]:
    """Manager-placement micro-benchmark: seed placements per host second.

    Drives the CentralBalancer's decision loop directly (alternating
    piggybacked load reports with placements) — the op the sparse refactor
    took from an O(P) scan to an O(log P) lazy-heap pop, worth ~100x at
    P=10,000.
    """

    def run() -> int:
        from types import SimpleNamespace

        from repro import Kernel, make_machine

        kernel = Kernel(make_machine("ideal", num_pes), balancer="central")
        bal = kernel.balancer
        env = SimpleNamespace(hops=0)
        n = 2_000
        for i in range(n):
            bal.note_load(0, (i * 40503) % 63 + 1, (i * 2654435761) % 7)
            bal.on_seed_arrival(0, env)
        return n

    return run


def _pool_churn(strategy_name: str) -> Callable[[], int]:
    def run() -> int:
        from repro.queueing.strategies import make_strategy

        q = make_strategy(strategy_name)
        n = 5_000
        for i in range(n):
            q.push(i, (i * 2654435761) % 1000)
        while q:
            q.pop()
        return 2 * n

    return run


def _pool_churn_default(strategy_name: str) -> Callable[[], int]:
    """All-unprioritized churn: exercises the pool's default fast lane."""

    def run() -> int:
        from repro.queueing.strategies import make_strategy

        q = make_strategy(strategy_name)
        n = 5_000
        for i in range(n):
            q.push(i)
        while q:
            q.pop()
        return 2 * n

    return run


def _pool_churn_deep(strategy_name: str) -> Callable[[], int]:
    """Deep-bitvector churn: ~80-bit priorities crossing the 63-bit chunk.

    Priorities are prebuilt once (and their normalized keys cached on the
    instances by the first run), so the steady-state metric is pool
    push/pop cost with multi-element packed keys — the deep-search-tree
    shape — not BitVectorPriority construction.
    """
    from repro.util.priority import BitVectorPriority

    prios = [
        BitVectorPriority(((i * 2654435761) >> b) & 1 for b in range(80))
        for i in range(64)
    ]

    def run() -> int:
        from repro.queueing.strategies import make_strategy

        q = make_strategy(strategy_name)
        n = 5_000
        for i in range(n):
            q.push(i, prios[i % 64])
        while q:
            q.pop()
        return 2 * n

    return run


def _pool_churn_mixed(strategy_name: str) -> Callable[[], int]:
    """Mixed-traffic churn: None / small-int / bitvector interleaved.

    The realistic lane mix — a prioritized app's search messages riding
    alongside unprioritized control traffic — so all three lanes (default
    deque, int buckets, heap) are hot in one measurement.
    """
    from repro.util.priority import BitVectorPriority

    prios = [
        BitVectorPriority(((i * 40503) >> b) & 1 for b in range(12))
        for i in range(16)
    ]

    def run() -> int:
        from repro.queueing.strategies import make_strategy

        q = make_strategy(strategy_name)
        n = 5_000
        for i in range(n):
            r = i % 3
            if r == 0:
                q.push(i)
            elif r == 1:
                q.push(i, (i * 2654435761) % 1000)
            else:
                q.push(i, prios[i % 16])
        while q:
            q.pop()
        return 2 * n

    return run


def _search_nqueens_bitprio() -> int:
    """End-to-end prioritized tree search: nodes expanded per host second.

    The full simulator stack — kernel, bitvector priorities normalized at
    send time, bitprio pools on every PE — on the app that motivates
    bitvector priorities (N-queens with path-encoded node priorities).
    """
    from repro import make_machine
    from repro.apps.nqueens import run_nqueens

    (_, nodes), _ = run_nqueens(
        make_machine("ideal", 8), n=8, grainsize=3,
        queueing="bitprio", use_priorities=True,
    )
    return nodes


def _search_tsp_prio() -> int:
    """End-to-end int-prioritized branch-and-bound (TSP, prio pools)."""
    from repro import make_machine
    from repro.apps.tsp import run_tsp

    (_, expanded, _), _ = run_tsp(
        make_machine("ideal", 8), n=8, queueing="prio",
    )
    return expanded


def _serving_requests() -> int:
    """End-to-end request serving: requests served per host second.

    Exercises the open-loop arrival path (timed sends), per-request
    tracing with the minimal serving kind set, and the trace-walking
    latency analyzer — the full S-series stack.  Guarded; the noisier
    trace-analysis share is why its --check tolerance is the shared 30%,
    not tighter.
    """
    from repro import make_machine
    from repro.apps.serving import run_serving
    from repro.workloads.arrivals import Poisson

    ans, _ = run_serving(
        make_machine("ncube2", 8),
        arrivals=Poisson(rate=4000.0, count=400),
        balancer="central",
    )
    return ans["completed"]


def measure_throughput(repeats: int = 5) -> Dict[str, float]:
    """Run every microbenchmark; returns {metric: ops_per_second}."""
    metrics = {
        "engine_events_per_s": _best_rate(_engine_events, repeats),
        "kernel_msgs_per_s": _best_rate(_kernel_messages, repeats),
        "kernel_telemetry_msgs_per_s": _best_rate(
            _kernel_telemetry_messages, repeats
        ),
        "kernel_seeds_per_s": _best_rate(_seed_fanout(8), repeats),
    }
    for pes in (1, 4, 32):
        metrics[f"kernel_seeds_per_s_p{pes}"] = _best_rate(
            _seed_fanout(pes), repeats
        )
    for name in ("fifo", "lifo", "prio", "bitprio", "priolifo"):
        metrics[f"pool_{name}_ops_per_s"] = _best_rate(
            _pool_churn(name), repeats
        )
    metrics["pool_prio_default_ops_per_s"] = _best_rate(
        _pool_churn_default("prio"), repeats
    )
    metrics["pool_bitprio_deep_ops_per_s"] = _best_rate(
        _pool_churn_deep("bitprio"), repeats
    )
    metrics["pool_prio_mixed_ops_per_s"] = _best_rate(
        _pool_churn_mixed("prio"), repeats
    )
    metrics["engine_events_per_s_p100k"] = _best_rate(
        _sparse_fanout(100_000), repeats
    )
    metrics["central_place_p10k_ops_per_s"] = _best_rate(
        _central_placements(10_000), repeats
    )
    metrics["search_bitprio_nodes_per_s"] = _best_rate(
        _search_nqueens_bitprio, repeats
    )
    metrics["search_tsp_prio_nodes_per_s"] = _best_rate(
        _search_tsp_prio, repeats
    )
    metrics["serving_requests_per_s"] = _best_rate(
        _serving_requests, repeats
    )
    return metrics


def host_context() -> Dict[str, object]:
    """CPU count and load average, recorded per entry.

    Wall-clock and throughput numbers are only comparable across entries
    when the host context is known — a 2x ``exp_all_wall_s`` swing between
    a 4-core laptop and a 64-core runner is machine skew, not a
    regression.  ``load_avg_1m`` is ``None`` where the platform has no
    ``os.getloadavg`` (Windows).
    """
    try:
        load_1m = round(os.getloadavg()[0], 3)
    except (AttributeError, OSError):
        load_1m = None
    return {"cpu_count": os.cpu_count(), "load_avg_1m": load_1m}


# ---------------------------------------------------------------- profiling
def profile_hot_paths(sort: str = "tottime",
                      limit: int = 25, rounds: int = 3,
                      out: "str | None" = None) -> None:
    """cProfile the tracked kernel cohort workloads; print a pstats table.

    Profiles exactly the runs the guarded ``kernel_msgs_per_s`` /
    ``kernel_seeds_per_s`` metrics time (PingPong message chain, Fanout
    seed burst), so the rows map one-to-one onto the throughput numbers:
    when a guarded metric drops, ``--profile`` names the frame that ate
    it.  The table goes to stdout; with ``out`` set, the raw profile is
    additionally dumped there in ``pstats`` binary form (loadable with
    ``pstats.Stats(path)`` or snakeviz) so a CI run's profile can be
    attached as an artifact and inspected offline.  Nothing is recorded
    in the JSON artifact either way.
    """
    import cProfile
    import pstats

    seeds = _seed_fanout(8)
    # Warm-up pass outside the profile: import cost and bytecode caches
    # would otherwise dominate the table.
    _kernel_messages()
    seeds()
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(rounds):
        _kernel_messages()
        seeds()
    prof.disable()
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    if out is not None:
        directory = os.path.dirname(out)
        if directory:
            os.makedirs(directory, exist_ok=True)
        prof.dump_stats(out)
        print(f"profile dumped -> {out}")


# ------------------------------------------------- experiment-suite wall time
def measure_exp_wall(scale: str = "quick", jobs: int | None = None,
                     exps: "list[str] | None" = None) -> Dict[str, float]:
    """Time the experiment suite serial, parallel, and warm-cache.

    Three passes over the same experiment set: (1) the historical serial
    path (``jobs=1``, no cache), (2) the parallel sweep executor cold
    (fresh cache, ``jobs`` workers), (3) a warm rerun replayed from that
    cache.  Virtual-time results are identical in all three — only the
    host cost differs, and that is the metric.
    """
    import shutil
    import tempfile

    from repro.bench.cache import ResultCache
    from repro.bench.experiments import EXPERIMENTS, run_experiment
    from repro.bench.parallel import SweepExecutor, default_jobs, use_executor

    jobs = jobs if jobs is not None else default_jobs()
    ids = sorted(EXPERIMENTS) if exps is None else list(exps)

    def run_all(executor: "SweepExecutor") -> float:
        t0 = time.perf_counter()
        with executor, use_executor(executor):
            for exp_id in ids:
                run_experiment(exp_id, scale=scale)
        return time.perf_counter() - t0

    metrics: Dict[str, float] = {"exp_all_jobs": float(jobs)}
    metrics["exp_all_wall_s_serial"] = run_all(SweepExecutor(jobs=1))
    cache_root = tempfile.mkdtemp(prefix="bench-expwall-")
    try:
        metrics[f"exp_all_wall_s_jobs{jobs}"] = run_all(
            SweepExecutor(jobs=jobs, cache=ResultCache(cache_root))
        )
        warm_cache = ResultCache(cache_root)
        metrics["exp_all_wall_s_warm_cache"] = run_all(
            SweepExecutor(jobs=jobs, cache=warm_cache)
        )
        metrics["exp_all_cache_hit_rate"] = warm_cache.hit_rate
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return metrics


# ------------------------------------------------------------------- storage
def _load(path: str) -> dict:
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"entries": []}


def record(path: str = DEFAULT_PATH, label: str = "", repeats: int = 5,
           metrics: Dict[str, float] | None = None) -> dict:
    """Measure (or take ``metrics``) and append one entry; returns the entry."""
    entry = {
        "label": label or "unlabelled",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "host": host_context(),
        "metrics": (measure_throughput(repeats)
                    if metrics is None else metrics),
    }
    data = _load(path)
    data["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return entry


def _guard_baseline(entries: list) -> dict | None:
    """Latest entry carrying any guarded metric.

    Entries recorded by ``--exp-wall`` (wall-clock family only), pre-PR-3
    entries missing ``host`` context and the historical batch-backend
    entries (``*_batch_*`` names only) must not silently disable the
    hot-path guard, so the scan walks backwards to the newest entry that
    actually measured a guarded metric.
    """
    for entry in reversed(entries):
        if any(name in entry.get("metrics", {}) for name in GUARDED_METRICS):
            return entry
    return None


def check(path: str = DEFAULT_PATH, tolerance: float = 0.30,
          repeats: int = 3) -> bool:
    """Re-measure the guarded metrics; True iff none regressed past tolerance."""
    data = _load(path)
    baseline = _guard_baseline(data["entries"])
    if baseline is None:
        print(f"no guarded baseline entries in {path}; nothing to check")
        return True
    current = measure_throughput(repeats)
    ok = True
    print(f"perf guard vs {baseline['label']!r} "
          f"({baseline['timestamp']}):")
    for name in GUARDED_METRICS:
        base = baseline["metrics"].get(name)
        now = current.get(name)
        if base is None or now is None:
            continue
        ratio = now / base
        flag = "ok" if ratio >= 1.0 - tolerance else "REGRESSION"
        print(f"  {name}: {now:,.0f}/s vs {base:,.0f}/s "
              f"({ratio:.2f}x) {flag}")
        if ratio < 1.0 - tolerance:
            ok = False
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=DEFAULT_PATH,
                    help="JSON artifact path (default: repo-root file)")
    ap.add_argument("--label", default="", help="entry label, e.g. a PR name")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--check", action="store_true",
                    help="regression-guard mode: compare against last entry")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop in --check mode")
    ap.add_argument("--profile", action="store_true",
                    help="cProfile the tracked kernel workloads (PingPong "
                    "messages, Fanout seeds) and print a pstats table "
                    "instead of recording metrics")
    ap.add_argument("--profile-sort", default="tottime",
                    choices=["tottime", "cumulative", "ncalls"],
                    help="pstats sort key for --profile (default: tottime)")
    ap.add_argument("--profile-limit", type=int, default=25,
                    help="rows to print in --profile mode (default: 25)")
    ap.add_argument("--profile-out", default=None, metavar="FILE",
                    help="also dump the raw --profile data to FILE in "
                    "pstats binary form (CI artifact; loadable with "
                    "pstats.Stats or snakeviz)")
    ap.add_argument("--exp-wall", action="store_true",
                    help="record experiment-suite wall time "
                    "(serial vs --exp-jobs vs warm cache) instead of the "
                    "hot-path microbenchmarks")
    ap.add_argument("--exp-scale", default="quick", choices=["paper", "quick"],
                    help="experiment scale for --exp-wall (default: quick)")
    ap.add_argument("--exp-jobs", type=int, default=None,
                    help="worker count for the parallel --exp-wall pass "
                    "(default: os.cpu_count())")
    args = ap.parse_args(argv)
    if args.profile:
        profile_hot_paths(args.profile_sort, args.profile_limit,
                          out=args.profile_out)
        return 0
    if args.check:
        return 0 if check(args.output, args.tolerance) else 1
    if args.exp_wall:
        metrics = measure_exp_wall(scale=args.exp_scale, jobs=args.exp_jobs)
        label = args.label or f"exp-wall ({args.exp_scale})"
        entry = record(args.output, label, metrics=metrics)
        print(f"recorded {entry['label']!r} -> {args.output}")
        for name, value in entry["metrics"].items():
            unit = "" if name.endswith(("_rate", "_jobs")) else "s"
            print(f"  {name}: {value:,.2f}{unit}")
        return 0
    entry = record(args.output, args.label, args.repeats)
    print(f"recorded {entry['label']!r} -> {args.output}")
    for name, value in entry["metrics"].items():
        print(f"  {name}: {value:,.0f}/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
