"""Which functions under ``src/repro`` does no configuration of the product reach?

    python3 tools/reach.py

Under the profiling hook (``cProfile``) it runs, in this process:

* ``python -m repro.bench --exp all --scale quick --jobs 1 --no-cache``;
* a traced, telemetry-on ``--exp s1,t5,r1`` (r1 injects faults) with
  ``--trace-out``, ``--metrics-out`` and ``--output``;
* a cold ``--exp t9,t1 --jobs 2`` on a temporary result cache, then a warm
  one at the default job count (the pool and cache paths the default CLI
  takes);
* ``python -m repro.trace --perfetto`` on three of the exported runs;
* ``python -m repro.apps <app> --timeline --set ...`` for every app, the
  ``--set`` pairs restating its defaults;
* every script under ``examples/``.

It then prints every function defined under ``src/repro`` (module-level
functions and class methods; a nested function counts as part of the
function that defines it) that none of those calls entered, grouped by
module, with its line count and the reason it may stay::

    bench/parallel.py  (1 function, 7 lines)
           7  SweepRunError.__init__  [ok: an error path: ...]

An entry whose reason reads ``NOT ALLOWLISTED`` is code that only tests
call: delete it, move its test onto the call the product makes, or add it
to :data:`ALLOWLIST` under a reason that says why it stays.  The script
exits 1 while any such entry is left.  An allowlisted function the run did
reach is reported too, so its entry can go.

Functions that run only in pool workers are not seen: the workers are
other processes.  A function that runs there would need an allowlist
entry under that reason; none does today (the one worker entry point,
``_run_descriptor_guarded``, also runs inline).
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: reason -> the functions it covers, each ``<path under src/repro>::<qualname>``.
#: A literal, so ``tests/test_reach_allowlist.py`` can check it without
#: importing this file: every name must exist and every reason be non-empty.
ALLOWLIST = {
    "a *_seq test oracle (DESIGN §6): the sequential reference a parallel "
    "run is checked against": (
        "apps/knapsack.py::knapsack_seq",
        "apps/lu.py::lu_seq",
        "apps/nqueens.py::nqueens_seq",
        "apps/primes.py::primes_seq",
        "apps/puzzle.py::ida_star_seq",
        "apps/sor.py::sor_seq",
        "apps/sor.py::_sweep",
    ),
    "a paper feature ROADMAP item 11 will measure: BOC calls, write-once "
    "variables, table_delete": (
        "core/chare.py::BranchOfficeChare.barrier",
        "core/chare.py::BranchOfficeChare.bochandle",
        "core/chare.py::BranchOfficeChare.broadcast",
        "core/chare.py::BranchOfficeChare.contribute",
        "core/chare.py::BranchOfficeChare.send_peer",
        "core/chare.py::Chare.broadcast_branches",
        "core/chare.py::Chare.create_boc",
        "core/chare.py::Chare.get_writeonce",
        "core/chare.py::Chare.local_branch",
        "core/chare.py::Chare.send_branch",
        "core/chare.py::Chare.table_delete",
        "core/chare.py::Chare.write_once",
        "core/messages.py::Envelope.make_boc",
        "core/tree.py::Span.__contains__",
        "sharing/manager.py::SharingService._construct_branch",
        "sharing/manager.py::SharingService._known",
        "sharing/manager.py::SharingService.branch",
        "sharing/manager.py::SharingService.broadcast",
        "sharing/manager.py::SharingService.contribute",
        "sharing/manager.py::SharingService.create_boc",
        "sharing/manager.py::SharingService.get_writeonce",
        "sharing/manager.py::SharingService.hold",
        "sharing/manager.py::SharingService.local_branch",
        "sharing/manager.py::SharingService.send_branch",
        "sharing/manager.py::SharingService.table_delete",
        "sharing/manager.py::SharingService.write_once",
    ),
    "a paper feature ROADMAP item 11 will measure: a send to a chare whose "
    "seed is not placed yet is held, then flushed at placement": (
        "core/objects.py::ObjectTable._flush",
        "core/objects.py::ObjectTable.hold",
    ),
    "a paper feature ROADMAP item 11 will measure: bitvector priorities "
    "(the bitprio arm it gives T6)": (
        "util/priority.py::BitVectorPriority.__eq__",
        "util/priority.py::BitVectorPriority.__hash__",
        "util/priority.py::BitVectorPriority.__len__",
        "util/priority.py::BitVectorPriority.__lt__",
        "util/priority.py::BitVectorPriority.__repr__",
        "util/priority.py::BitVectorPriority.bits",
        "util/priority.py::BitVectorPriority.child",
        "util/priority.py::BitVectorPriority.extend",
    ),
    "another item's queue: ROADMAP item 3 (core/direct.py)": (
        "core/direct.py::DirectRunner.__call__",
        "core/direct.py::DirectRunner.__init__",
        "core/direct.py::DirectRunner.run",
        "core/direct.py::stress",
    ),
    "another item's queue: ROADMAP 1(b) retires sim/backend.py; "
    "ledger/probes.py:119 calls make_backend": (
        "sim/backend.py::BatchBackend.__init__",
        "sim/backend.py::BatchBackend.run",
        "sim/backend.py::BatchBackend.schedule_call",
        "sim/backend.py::make_backend",
    ),
    "another item's queue: ROADMAP 1(g) re-points the probe that builds "
    "Mesh2DTopology (ledger/probes.py:147)": (
        "machine/topology.py::Mesh2DTopology.__init__",
        "machine/topology.py::Mesh2DTopology._rc",
        "machine/topology.py::Mesh2DTopology.diameter",
        "machine/topology.py::Mesh2DTopology.distance",
        "machine/topology.py::Mesh2DTopology.neighbors",
        "machine/topology.py::Mesh2DTopology.route",
        "machine/topology.py::_near_square_rows",
    ),
    "a name ledger/ calls: a pass runs one experiment at a time through "
    "the ambient executor (ledger/passes.py:186, :190, :227) until ROADMAP "
    "1(j) hands it a plan; run_experiment runs its plan through "
    "run_experiments and current_executor, while the bench CLI plans, runs "
    "and finishes its sweep itself": (
        "bench/experiments.py::run_experiment",
        "bench/experiments.py::run_experiments",
        "bench/parallel.py::current_executor",
        "bench/parallel.py::use_executor",
    ),
    "a name ledger/ calls: the metrics.latency_requests_per_s probe walks "
    "a log into request records (ledger/probes.py:296); the product "
    "digests the same walk's tuples": (
        "metrics/latency.py::request_latencies",
    ),
    "a name ledger/ calls: the bitprio pool probe builds BitVectorPriority "
    "keys (ledger/probes.py:165)": (
        "util/priority.py::BitVectorPriority.__init__",
        "util/priority.py::_bit",
    ),
    "a name ledger/ calls: the pool probes push and truth-test a bare "
    "strategy (ledger/probes.py:174-175); the kernel reaches FIFO's deque "
    "directly": (
        "queueing/strategies.py::FifoStrategy.__bool__",
        "queueing/strategies.py::FifoStrategy.push",
        "queueing/strategies.py::_PriorityHeap.__bool__",
    ),
    "an error path: a run that raised, a send to a dead or unknown chare, "
    "an undelivered message, a bad monotonic order, a branch send outside "
    "a sparse BOC's span, a QD wave that read more processed than sent": (
        "bench/parallel.py::SweepRunError.__init__",
        "core/objects.py::ObjectTable._no_chare",
        "core/handles.py::ChareHandle.__repr__",
        "core/handles.py::BocHandle.__repr__",
        "core/messages.py::Envelope.__repr__",
        "sharing/ops.py::_bad_order",
        "sharing/manager.py::_outside_span",
        "core/tree.py::Span.__len__",
        "core/pe.py::PEPlane.states",
    ),
    "a guard path: a pinned seed a token steal pulled goes back to its "
    "pool; no experiment pins seeds under the token balancer": (
        "core/pe.py::PEState.requeue_seed",
    ),
    "a guard path: a stream that mixes random() with randint() gives its "
    "drawn-ahead uniforms back; every product stream draws one kind": (
        "util/rng.py::RngStream._settle",
    ),
    "a base-class default or an abstract method": (
        "balance/base.py::Balancer.handle",
        "balance/base.py::Balancer.on_seed_arrival",
        "core/services.py::Service.handle",
        "core/tree.py::SpanningTree.children",
        "core/tree.py::SpanningTree.parent",
        "machine/topology.py::Topology.diameter",
        "machine/topology.py::Topology.distance",
        "machine/topology.py::Topology.neighbors",
        "machine/topology.py::Topology.route",
        "queueing/strategies.py::QueueStrategy.__bool__",
        "queueing/strategies.py::QueueStrategy.__len__",
        "queueing/strategies.py::QueueStrategy.pop",
        "queueing/strategies.py::QueueStrategy.push",
    ),
    "the strategy protocol: the token balancer takes len() of, and the "
    "kernel truth-tests, whichever pool a run configures": (
        "queueing/strategies.py::LifoStrategy.__bool__",
        "queueing/strategies.py::LifoStrategy.__len__",
        "queueing/strategies.py::_PriorityHeap.__len__",
    ),
}


def functions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """``(file, first line) -> (module, qualname, lines)`` for every
    module-level function and class method under ``src/repro``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    out = {}
    for dirpath, _, filenames in os.walk(PACKAGE):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            module = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for qualname, node in _defs(tree.body, ""):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                out[(path, first)] = (module, qualname,
                                      node.end_lineno - first + 1)
    return out


def _defs(body, prefix: str):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + node.name + ".")


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        yield


def run_product(scratch: str) -> None:
    """Everything the product runs, in this process."""
    from repro.apps.__main__ import main as apps_main
    from repro.bench.__main__ import main as bench_main
    from repro.bench.harness import APPS
    from repro.trace.__main__ import main as trace_main

    def bench(*argv: str) -> None:
        with quiet():
            code = bench_main(list(argv) + ["--scale", "quick"])
        if code:
            raise SystemExit(f"repro.bench {' '.join(argv)} exited {code}")

    bench("--exp", "all", "--jobs", "1", "--no-cache")
    # Tracing, telemetry and faults at once (r1 drops messages), with every
    # export the CLI writes.
    traces = os.path.join(scratch, "traces")
    bench("--exp", "s1,t5,r1", "--jobs", "1", "--no-cache", "--trace-out", traces,
          "--metrics-out", os.path.join(scratch, "metrics"),
          "--output", os.path.join(scratch, "tables"))
    # A cold pooled pass, then a warm one at the default job count.
    cache = ["--cache-dir", os.path.join(scratch, "cache")]
    bench("--exp", "t9,t1", "--jobs", "2", *cache)
    bench("--exp", "t9,t1", *cache)

    runs = sorted(name for name in os.listdir(traces) if name.endswith(".run.json"))
    for name in runs[:: max(1, len(runs) // 3)][:3]:
        with quiet():
            trace_main([os.path.join(traces, name), "--perfetto",
                        os.path.join(scratch, name + ".perfetto.json")])
    for app, spec in sorted(APPS.items()):
        # --set restates the app's scalar defaults, so the run is the default.
        pairs = [f"{key}={value}" for key, value in spec.defaults.items()
                 if type(value) in (int, float, str)]
        with quiet():
            apps_main([app, "--timeline", "--set", *pairs])

    examples = os.path.join(ROOT, "examples")
    argv = sys.argv
    try:
        for name in sorted(os.listdir(examples)):
            if name.endswith(".py"):
                sys.argv = [name]
                with quiet():
                    runpy.run_path(os.path.join(examples, name), run_name="__main__")
    finally:
        sys.argv = argv


def trace_product() -> set:
    """``(file, first line)`` of every code object the product entered.

    ``cProfile`` sets the same hook ``sys.setprofile`` does, but counts
    calls in C: a Python-level hook function costs several times more.
    """
    profiler = cProfile.Profile()
    scratch = tempfile.mkdtemp(prefix="reach-")
    profiler.enable()
    try:
        run_product(scratch)
    finally:
        profiler.disable()
        shutil.rmtree(scratch, ignore_errors=True)
    return {(entry.code.co_filename, entry.code.co_firstlineno)
            for entry in profiler.getstats() if not isinstance(entry.code, str)}


def main() -> int:
    sys.path.insert(0, SRC)
    # Pool workers started with ``spawn`` (where ``fork`` is unavailable)
    # import repro afresh and need src/ on their path too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    reached = trace_product()
    wall = time.perf_counter() - started

    reasons = {name: reason for reason, names in ALLOWLIST.items()
               for name in names}
    by_module: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    stale = []
    defined = functions()
    for key, (module, qualname, lines) in defined.items():
        name = f"{module}::{qualname}"
        if key not in reached:
            by_module[module].append((qualname, lines))
        elif name in reasons:
            stale.append(name)

    unlisted = total = 0
    for module in sorted(by_module):
        entries = sorted(by_module[module])
        lines = sum(n for _, n in entries)
        total += lines
        print(f"{module}  ({len(entries)} function{'s' * (len(entries) != 1)}, "
              f"{lines} lines)")
        for qualname, n in entries:
            reason = reasons.get(f"{module}::{qualname}")
            if reason is None:
                unlisted += 1
                reason = "NOT ALLOWLISTED"
            else:
                reason = "ok: " + reason
            print(f"  {n:6d}  {qualname}  [{reason}]")
    print(f"\n{len(defined)} functions under src/repro, "
          f"{sum(map(len, by_module.values()))} unreached ({total} lines), "
          f"{unlisted} of them not allowlisted; traced in {wall:.1f} s")
    for name in sorted(stale):
        print(f"reached, so its allowlist entry can go: {name}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
