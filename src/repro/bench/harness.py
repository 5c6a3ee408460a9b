"""Measurement harness.

Wraps the per-app ``run_*`` drivers behind a uniform registry so the
experiment modules can sweep PEs, machines, balancers and queueing
strategies without app-specific code.  All measurements are **virtual
time** from the deterministic simulator; host time is recorded only as a
diagnostic.

Measurements are expressed as declarative
:class:`~repro.bench.descriptors.RunDescriptor`\\ s (:func:`describe`)
and executed through the ambient sweep executor
(:mod:`repro.bench.parallel`), which adds result caching and process-pool
parallelism without changing any virtual-time result.  :func:`measure`
is the one-run convenience wrapper; experiments batch descriptors
through :func:`measure_many` so independent runs can overlap.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import (
    MdParams,
    TreeParams,
    run_md,
    run_fib,
    run_histogram,
    run_jacobi,
    run_lu,
    run_knapsack,
    run_matmul,
    run_nqueens,
    run_primes,
    run_puzzle,
    run_samplesort,
    run_serving,
    run_sor,
    run_tree,
    run_tsp,
)
from repro.bench.descriptors import RunDescriptor
from repro.workloads.arrivals import Poisson, ServiceSpec
from repro.core.kernel import RunResult
from repro.machine.presets import MACHINE_PRESETS, make_machine
from repro.metrics.latency import LatencyFold
from repro.util.errors import ConfigurationError, need_int, need_interval

__all__ = ["AppSpec", "APPS", "describe", "measure_many",
           "execute_descriptor", "run_descriptor", "sweep_from_rows",
           "SweepResult", "use_tracing", "use_telemetry"]


@dataclass(frozen=True)
class AppSpec:
    """One benchmark program plus its default 'paper scale' parameters."""

    name: str
    runner: Callable[..., Tuple[Any, RunResult]]
    defaults: Dict[str, Any]
    #: Which strategies make sense: apps with pinned placement ignore balancers.
    uses_balancer: bool = True
    #: Projection of the answer that must be invariant across P/strategies.
    #: Speculative searches (B&B) legitimately expand different node counts
    #: in different schedules; only the optimum is checked.
    canon: Optional[Callable[[Any], Any]] = None
    #: Builds the recorder :func:`run_descriptor` gives an untraced run of
    #: this app in place of the runner's own default event log, when the
    #: app's answer is digested from one (serving's latencies); ``None``
    #: for an app whose answer needs no recorder.
    fold: Optional[Callable[[], Any]] = None


APPS: Dict[str, AppSpec] = {
    "queens": AppSpec("queens", run_nqueens, {"n": 8, "grainsize": 3}),
    "fib": AppSpec("fib", run_fib, {"n": 18, "threshold": 9}),
    "primes": AppSpec("primes", run_primes, {"limit": 6000, "chunks": 64}),
    "tsp": AppSpec("tsp", run_tsp, {"n": 11, "grain": 5, "queueing": "prio"},
                   canon=lambda a: a[0]),
    "knapsack": AppSpec("knapsack", run_knapsack, {"n": 22, "grain": 11,
                                                   "queueing": "prio"},
                        canon=lambda a: a[0]),
    "jacobi": AppSpec(
        "jacobi", run_jacobi, {"n": 32, "blocks": 4, "iterations": 8},
        uses_balancer=False,
    ),
    "matmul": AppSpec("matmul", run_matmul, {"n": 48, "g": 4}),
    "tree": AppSpec(
        "tree",
        run_tree,
        {"params": TreeParams(seed=7, max_depth=12, max_fanout=6,
                              branch_bias=0.98, node_work=150.0)},
    ),
    "histogram": AppSpec("histogram", run_histogram, {"items": 256, "workers": 16}),
    "puzzle": AppSpec(
        "puzzle",
        run_puzzle,
        {"scramble": 50, "instance_seed": 3, "split": 8, "queueing": "prio"},
        canon=lambda a: (a[0], a[1]),  # node counts vary with schedule
    ),
    "sor": AppSpec(
        "sor", run_sor, {"n": 32, "blocks": 4, "tol": 1e-2, "max_iters": 200},
        uses_balancer=False,
    ),
    "samplesort": AppSpec(
        "samplesort", run_samplesort, {"n": 4096, "workers": 16},
        canon=lambda a: ("ok",),  # validated in-app against numpy elsewhere
    ),
    "md": AppSpec(
        "md",
        run_md,
        {"params": MdParams(cells=4, n_particles=64, steps=10, seed=1)},
        uses_balancer=False,
    ),
    "lu": AppSpec("lu", run_lu, {"n": 64, "blocks": 16}, uses_balancer=False),
    "serving": AppSpec(
        "serving",
        run_serving,
        {"arrivals": Poisson(rate=2000.0, count=160), "service": ServiceSpec()},
        # Latency depends on P and placement by design; only the offered
        # count is configuration-invariant.
        canon=lambda a: (a["offered"],),
        fold=LatencyFold,
    ),
}


# ------------------------------------------------------- ambient tracing
#: Event kinds every subsequently-described run should record, installed
#: by the bench CLI's ``--trace-events`` flag; () means tracing off.
_tracing: Tuple[str, ...] = ()


@contextmanager
def use_tracing(kinds: Any):
    """Trace every run described in this block with the given event kinds.

    ``kinds`` accepts the same spellings as ``Kernel(trace_events=...)``:
    ``True``/``"all"``, an iterable of kind names, or a comma-joined
    string.  Tracing becomes part of each run's descriptor (and therefore
    of its cache key) — it never silently alters untraced measurements.
    """
    from repro.trace.events import normalize_kinds

    global _tracing
    previous = _tracing
    _tracing = normalize_kinds(kinds)
    try:
        yield _tracing
    finally:
        _tracing = previous


# ----------------------------------------------------- ambient telemetry
#: Snapshot interval (virtual seconds) every subsequently-described run
#: should attach a telemetry plane with, installed by the bench CLI's
#: ``--metrics-*`` flags; ``None`` means telemetry off, ``0.0`` means a
#: final snapshot only.
_ambient_metrics: Optional[float] = None


@contextmanager
def use_telemetry(interval: float = 0.0):
    """Attach a telemetry plane to every run described in this block.

    ``interval`` is the virtual-time snapshot period (``0.0`` = final
    snapshot only).  Telemetry becomes part of each run's descriptor (and
    therefore of its cache key) — untelemetered measurements never replay
    telemetered rows or vice versa.  The plane itself is inert on the
    simulated run: answers, virtual times and event counts are identical
    with it on or off.
    """
    interval = need_interval("telemetry interval", interval)
    global _ambient_metrics
    previous = _ambient_metrics
    _ambient_metrics = interval
    try:
        yield _ambient_metrics
    finally:
        _ambient_metrics = previous


@dataclass
class MeasureRow:
    """One (app, machine, P, strategies) measurement.

    The row is a *picklable projection* of the run: everything the
    experiment tables consume (virtual time, answer, aggregated stats,
    quiescence timings, the engine's event count) travels across
    worker-process and cache boundaries, and rows of one descriptor are
    equal field for field — ``host_seconds`` aside — whether they were
    executed inline, by a pool worker, or replayed from the cache.

    ``result`` is ``None`` on every row the sweep executor returns.  Only
    :func:`execute_descriptor`, called directly, attaches the live
    :class:`RunResult` with its kernel graph there, for callers that
    inspect a finished run (tests, the performance ledger's probes).
    """

    app: str
    machine: str
    num_pes: int
    queueing: str
    balancer: str
    vtime: float
    answer: Any
    stats: Any = field(default=None, repr=False)       # TraceReport
    truncated: bool = False
    host_seconds: float = 0.0
    qd_work_end: Optional[float] = None
    last_counted_exec_time: float = 0.0
    result: Optional[RunResult] = field(default=None, repr=False)
    #: Engine callbacks the run fired (``RunResult.events``).
    events: int = 0
    #: Structured-event payload ("repro-trace-v1" dict) when the run was
    #: described with tracing on; plain data, so it survives pool workers
    #: and the result cache.
    trace: Any = field(default=None, repr=False)
    #: Telemetry payload ("repro-metrics-v1" dict) when the run was
    #: described with metrics on; plain data like ``trace``, so it feeds
    #: the exporters/health reporter identically from workers and cache.
    telemetry: Any = field(default=None, repr=False)

    @property
    def vtime_ms(self) -> float:
        return self.vtime * 1e3


def describe(
    app: str,
    machine_name: str,
    num_pes: int,
    *,
    queueing: Optional[str] = None,
    balancer: Any = "random",
    seed: int = 0,
    machine_scaled: Optional[Dict[str, Any]] = None,
    trace: Any = None,
    metrics: Any = None,
    **overrides: Any,
) -> RunDescriptor:
    """Normalise one configuration into a declarative run descriptor.

    ``trace`` selects structured-event kinds for this run (same spellings
    as ``Kernel(trace_events=...)``); ``None`` inherits the ambient
    :func:`use_tracing` setting, ``()``/``""`` forces tracing off.

    ``metrics`` attaches a telemetry plane: a snapshot interval in virtual
    seconds (``0.0`` = final snapshot only).  ``None`` inherits the
    ambient :func:`use_telemetry` setting, ``False`` forces telemetry off.
    Telemetry joins ``params`` only when enabled, preserving historical
    cache keys.
    """
    try:
        spec = APPS[app]
    except KeyError:
        raise ConfigurationError(
            f"unknown app {app!r}; options: {sorted(APPS)}"
        ) from None
    # Here, not in the run: a pool worker would report each of these as a
    # failed run, and canonical() coerces with int(), so num_pes=4.0 and
    # seed=1.5 would share the cache keys of 4 and 1.
    if machine_name not in MACHINE_PRESETS:
        raise ConfigurationError(
            f"unknown machine preset {machine_name!r}; "
            f"options: {sorted(MACHINE_PRESETS)}"
        )
    num_pes = need_int("num_pes", num_pes, 1)
    seed = need_int("seed", seed, None)
    params = dict(spec.defaults)
    params.update(overrides)
    if queueing is not None:
        params["queueing"] = queueing
    params.setdefault("queueing", "fifo")
    params.setdefault("balancer", balancer)
    if metrics is None:
        metrics_interval = _ambient_metrics
    elif metrics is False:
        metrics_interval = None
    else:
        # Here, not in the run: the interval goes into the descriptor and
        # its cache key, and a pool worker would report it as a failed run.
        metrics_interval = need_interval("metrics", metrics)
    if metrics_interval is not None:
        params["metrics"] = metrics_interval
    else:
        params.pop("metrics", None)
    if trace is None:
        trace_kinds = _tracing
    elif not trace:  # explicit off: (), "", False
        trace_kinds = ()
    else:
        from repro.trace.events import normalize_kinds

        trace_kinds = normalize_kinds(trace)
    return RunDescriptor(
        app=app,
        machine=machine_name,
        num_pes=num_pes,
        seed=seed,
        params=tuple(sorted(params.items(), key=lambda kv: kv[0])),
        machine_scaled=tuple(
            sorted((machine_scaled or {}).items(), key=lambda kv: kv[0])
        ),
        trace=trace_kinds,
    )


def execute_descriptor(desc: RunDescriptor) -> MeasureRow:
    """Simulate one descriptor and project it into a row (no cache, no pool).

    The returned row still carries the live run in ``result`` — the kernel,
    and on it the event log a serving run's latencies were walked from;
    the sweep executor goes through :func:`run_descriptor`, which lets it go.

    The cyclic collector is off for the call and back in its previous
    state after it, even when the run raises.  A run builds no reference
    cycles (``tests/test_lifetimes.py``), so a collection during one frees
    nothing and only rescans the live frontier: 6.6 % of a ``search``
    pass's wall time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec = APPS[desc.app]
        params = dict(desc.params)
        balancer = params.get("balancer")
        if isinstance(balancer, dict):
            from repro.balance import make_balancer

            balancer_spec = dict(balancer)
            params["balancer"] = make_balancer(
                balancer_spec.pop("name"), **balancer_spec
            )
        # Sparse startup is a property of the machine, not a kernel keyword.
        machine = make_machine(desc.machine, desc.num_pes,
                               sparse=params.pop("sparse", False))
        if desc.machine_scaled:
            machine.params = machine.params.scaled(**dict(desc.machine_scaled))
        if desc.trace:
            # Forwarded to Kernel(trace_events=...) via the runner's
            # **kernel_kwargs passthrough (every registered app supports it).
            params["trace_events"] = list(desc.trace)
        metrics_interval = params.pop("metrics", None)
        tel = None
        if metrics_interval is not None:
            from repro.obs import Telemetry

            tel = Telemetry(interval=metrics_interval)
            # Same **kernel_kwargs passthrough as tracing: Kernel(telemetry=...).
            params["telemetry"] = tel
        answer, result = spec.runner(machine, seed=desc.seed, **params)
        kernel = result.kernel
        trace_payload = None
        if desc.trace and kernel is not None and kernel.events is not None:
            log = kernel.events
            trace_payload = {
                "format": "repro-trace-v1",
                "meta": {
                    "app": desc.app,
                    "machine": desc.machine,
                    "num_pes": desc.num_pes,
                    "seed": desc.seed,
                    "queueing": desc.queueing,
                    "balancer": desc.balancer_label,
                    "total_time": result.time,
                    "kinds": list(log.kinds),
                },
                "events": log.as_records(),
                "dropped": log.dropped,
            }
        telemetry_payload = None
        if tel is not None:
            telemetry_payload = tel.payload(meta={
                "app": desc.app,
                "machine": desc.machine,
                "num_pes": desc.num_pes,
                "seed": desc.seed,
                "queueing": desc.queueing,
                "balancer": desc.balancer_label,
                "total_time": result.time,
            })
        return MeasureRow(
            app=desc.app,
            machine=desc.machine,
            num_pes=desc.num_pes,
            queueing=desc.queueing,
            balancer=desc.balancer_label,
            vtime=result.time,
            answer=answer,
            stats=result.stats,
            truncated=result.truncated,
            host_seconds=result.host_seconds,
            qd_work_end=(None if kernel is None
                         else kernel.qd.work_end_at_detection),
            last_counted_exec_time=(0.0 if kernel is None
                                    else kernel.last_counted_exec_time),
            result=result,
            events=result.events,
            trace=trace_payload,
            telemetry=telemetry_payload,
        )
    finally:
        if enabled:
            gc.enable()


def run_descriptor(desc: RunDescriptor) -> MeasureRow:
    """Execute one descriptor and keep the row only.

    What the sweep executor runs, inline and in its pool workers alike:
    once the row is projected the run is detached from it and its kernel
    closed, so no kernel outlives the call that simulated it — and nobody
    can read an event log off it.  So where the app digests its answer
    from a recorder (``AppSpec.fold``) and the descriptor neither exports
    a trace nor sets ``trace_events`` itself (S6's ``None``), the run
    records into a fresh fold instead of the runner's default log; the
    answer is the same float for float (``tests/test_event_rows.py``).
    The fold rides in a private copy of the descriptor, through the
    ``**kernel_kwargs`` passthrough every ``trace_events`` setting takes.
    """
    fold = APPS[desc.app].fold
    if (fold is not None and not desc.trace
            and "trace_events" not in dict(desc.params)):
        desc = replace(desc, params=desc.params + (("trace_events", fold()),))
    row = execute_descriptor(desc)
    result, row.result = row.result, None
    if result.kernel is not None:
        result.kernel.close()
    return row


def measure_many(descs: Sequence[RunDescriptor], label: str = "") -> List[MeasureRow]:
    """Execute a batch of descriptors through the ambient sweep executor."""
    from repro.bench.parallel import current_executor

    return current_executor().run_many(descs, label=label)


@dataclass
class SweepResult:
    """A PE sweep of one app on one machine: the unit of a speedup table."""

    app: str
    machine: str
    pes: List[int]
    times: List[float]          # virtual seconds per P
    answers: List[Any]
    rows: List[MeasureRow]

    @property
    def t1(self) -> float:
        return self.times[0]

    @property
    def speedups(self) -> List[float]:
        return [self.t1 / t if t > 0 else float("nan") for t in self.times]

    def consistent(self) -> bool:
        """True if every P produced the same answer (determinism check)."""
        first = _comparable(self.answers[0])
        return all(_comparable(a) == first for a in self.answers[1:])


def sweep_from_rows(
    app: str, machine_name: str, pes: Sequence[int], rows: Sequence[MeasureRow]
) -> SweepResult:
    """Assemble a :class:`SweepResult` from already-executed rows."""
    canon = APPS[app].canon or (lambda a: a)
    return SweepResult(
        app=app,
        machine=machine_name,
        pes=list(pes),
        times=[r.vtime for r in rows],
        answers=[_strip_arrays(canon(r.answer)) for r in rows],
        rows=list(rows),
    )


def _comparable(answer: Any) -> Any:
    """Answers compare with ``==`` (ndarray -> its bytes)."""
    import numpy as np

    if isinstance(answer, tuple):
        return tuple(_comparable(a) for a in answer)
    if isinstance(answer, np.ndarray):
        return answer.tobytes()
    return answer


def _strip_arrays(answer: Any) -> Any:
    """Keep answers comparable/storable (ndarray -> checksum)."""
    import numpy as np

    if isinstance(answer, tuple):
        return tuple(_strip_arrays(a) for a in answer)
    if isinstance(answer, np.ndarray):
        return ("ndarray", answer.shape, float(np.sum(answer)))
    return answer
