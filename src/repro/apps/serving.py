"""Open-loop request-serving workload: a chare server farm under live load.

The paper's applications are closed-world batch programs; this app is the
ROADMAP's "millions of users" scenario in miniature — an **open-loop**
source injects request chares at externally-determined virtual times
(:mod:`repro.workloads.arrivals`) and the farm either keeps up or melts
down; the source never waits.

Structure:

* ``ServingMain`` (PE 0) is both load generator and collector.  It walks a
  precomputed arrival-time list with timed self-messages
  (:meth:`repro.core.chare.Chare.send_at` — one ``tick`` per request, each
  scheduling the next), so generation costs one small execution per
  arrival and the stream is identical on every job count.
* Each ``tick`` creates a ``Request`` chare **seed with no fixed PE** —
  placement goes through whichever load balancer the kernel was built
  with (random / central manager / ACWN / token), which is exactly the
  knob the S-series experiments turn.
* ``Request`` charges its sampled service demand and either creates the
  next pipeline stage (multi-hop requests, again balancer-placed) or
  reports ``done`` to the collector.  With admission control enabled, a
  stage-0 request landing on a PE whose load exceeds the bound is *shed*:
  it pays a small triage cost and reports ``shed`` instead of serving.
* The run exits when every offered request is accounted for — no
  quiescence detection needed.  Per-request latency comes off the
  kernel's recorder seam (``trace_events=``), with no latency hooks of
  its own, through :mod:`repro.metrics.latency`: by default the runner
  installs an event log of the four kinds the *walk* needs and
  reconstructs every request from its causal chains afterwards; handed a
  :class:`~repro.metrics.latency.LatencyFold` (what a sweep's
  ``run_descriptor`` does, since nobody reads a log off a kernel it
  closes) the same chains are linked as the run goes and no row is kept.
  The two give the same records float for float.
* With a telemetry plane attached (``telemetry=`` kernel kwarg,
  :mod:`repro.obs`), the app additionally streams each request's latency
  into an online log-bucketed histogram as it completes — injection is
  stamped at the seed's send departure and completion at the final
  stage's execution end, the exact endpoints the trace walk recovers —
  so tail percentiles stay available at farm sizes where recording every
  event is infeasible (experiment S6).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine
from repro.metrics.latency import LatencyFold, latency_summary
from repro.trace.events import EventLog
from repro.util.errors import ConfigurationError, need_real
from repro.workloads.arrivals import (
    ArrivalSpec,
    Poisson,
    ServiceSpec,
    arrival_times,
    service_demands,
)

__all__ = ["run_serving", "SERVING_TRACE_KINDS", "TRIAGE_WORK"]

#: Event kinds the latency walk needs; installed by default on every
#: serving run (callers may override via ``trace_events=``).
SERVING_TRACE_KINDS = ("deliver", "exec_begin", "exec_end", "send")

#: Work units charged for inspecting-and-rejecting a shed request.
TRIAGE_WORK = 5.0


class Request(Chare):
    """One request (or one pipeline stage of one): charge demand, hand off."""

    def __init__(self, rid: int, stage: int, demands: Tuple[float, ...]):
        shed_above = self.readonly("serving_admission")
        tel = self._kernel.telemetry
        if stage == 0 and shed_above is not None and self.local_load > shed_above:
            # Admission control: the queue here is already deeper than the
            # bound, so turn the request away after a token triage cost.
            self.charge(TRIAGE_WORK)
            self.send(self.mainhandle, "shed", rid)
            if tel is not None:
                # Online latency: resolved against this execution's true
                # end time by the telemetry exec hook — the same timestamp
                # the trace walk's exec_end carries.
                tel.serving_complete(rid, "shed")
            self.destroy()
            return
        self.charge(demands[stage])
        if stage + 1 < len(demands):
            # Next pipeline stage: a fresh balancer-placed seed, so one
            # request can traverse several PEs of the farm.
            self.create(Request, rid, stage + 1, demands)
        else:
            self.send(self.mainhandle, "done", rid)
            if tel is not None:
                tel.serving_complete(rid, "done")
        self.destroy()


class ServingMain(Chare):
    """Load generator + collector (the farm's 'front end', on PE 0)."""

    def __init__(
        self,
        arrivals: Sequence[float],
        demands: Sequence[Tuple[float, ...]],
        shed_above: Optional[int],
    ):
        self.set_readonly("serving_admission", shed_above)
        self.arrivals = arrivals
        self.demands = demands
        self.n = len(arrivals)
        self.n_done = 0
        self.n_shed = 0
        if self.n == 0:
            self.exit((0, 0))
            return
        self.send_at(arrivals[0], self.thishandle, "tick", 0)

    @entry
    def tick(self, i: int) -> None:
        self.create(Request, i, 0, self.demands[i])
        tel = self._kernel.telemetry
        if tel is not None:
            # Stamp injection at the seed's send departure (tick charges no
            # work, so that is start + overhead_base — exactly the trace
            # walk's inject_t).  Host-side only; the run is unperturbed.
            tel.serving_inject(i)
        if i + 1 < self.n:
            self.send_at(self.arrivals[i + 1], self.thishandle, "tick", i + 1)

    @entry
    def done(self, rid: int) -> None:
        self.n_done += 1
        self._account()

    @entry
    def shed(self, rid: int) -> None:
        self.n_shed += 1
        self._account()

    def _account(self) -> None:
        if self.n_done + self.n_shed == self.n:
            self.exit((self.n_done, self.n_shed))


def run_serving(
    machine: Machine,
    arrivals: ArrivalSpec = Poisson(rate=2000.0, count=200),
    service: ServiceSpec = ServiceSpec(),
    hops: int = 1,
    shed_above: Optional[int] = None,
    *,
    queueing: str = "fifo",
    balancer: str = "random",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[Dict[str, Any], RunResult]:
    """Serve one open-loop request stream; returns ``(summary, RunResult)``.

    The summary dict carries the offered/completed/shed counts plus the
    end-to-end latency digest (nearest-rank p50/p95/p99, mean/min/max, and
    the queue-wait / service / transit split) digested from whichever
    recorder the kernel ran with: the default event log (walked), a
    :class:`~repro.metrics.latency.LatencyFold` passed as ``trace_events``
    (folded; the same numbers), or a log of the caller's choosing.  All
    values are plain scalars, so the answer is picklable and cache-stable.
    If the caller overrides ``trace_events`` with kinds the analyzer
    cannot use, the latency fields degrade to ``None`` while the counts
    (tracked in-app) stay exact; under the default log or a fold, a digest
    that disagrees with those counts is an ``AssertionError``.  A bounded
    log that overflowed (``dropped > 0``) raises
    :class:`ConfigurationError` instead of digesting the prefix of
    requests it kept.  ``shed_above`` / ``hops`` and the arrival and
    service specs are validated before anything is simulated.
    """
    if shed_above is not None:
        # Compared with a queue depth in every stage-0 request: NaN never
        # sheds, a negative bound sheds everything, a string dies mid-run.
        need_real("shed_above", shed_above, strict=False)
    times = arrival_times(arrivals, seed)
    demands = service_demands(service, len(times), hops, seed)
    default_trace = "trace_events" not in kernel_kwargs
    if default_trace:
        kernel_kwargs["trace_events"] = SERVING_TRACE_KINDS
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(ServingMain, tuple(times), tuple(demands), shed_above)
    n_done, n_shed = result.result
    recorder = kernel.events
    if isinstance(recorder, EventLog) and recorder.dropped:
        # A full log keeps a prefix of the stream: percentiles over it
        # would read as complete while describing the early requests only.
        raise ConfigurationError(
            f"the event log overflowed max_events={recorder.max_events} "
            f"({recorder.dropped} events dropped), so trace-derived latencies "
            "would cover only a prefix of the requests; raise max_events, "
            "or pass trace_events=None with telemetry= and read "
            "summary['online'] (the S6 lens)"
        )
    digest = latency_summary(recorder if recorder is not None else ())
    if ((default_trace or isinstance(recorder, LatencyFold))
            and (digest["completed"], digest["shed"]) != (n_done, n_shed)):
        raise AssertionError(
            "latency analyzer disagrees with the collector: "
            f"trace saw {digest['completed']}/{digest['shed']} "
            f"done/shed, app counted {n_done}/{n_shed}"
        )
    summary: Dict[str, Any] = {
        "offered": len(times),
        "completed": n_done,
        "shed": n_shed,
    }
    for key, value in digest.items():
        if key not in ("requests", "completed", "shed"):
            summary[key] = value
    if kernel.telemetry is not None:
        # Trace-free latency digest from the online histograms — the lens
        # that still works at P=10⁵ where tracing is infeasible (S6).
        summary["online"] = kernel.telemetry.serving_quantiles()
    return summary, result
