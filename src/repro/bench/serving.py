"""Serving experiments (S-series): the open-loop request workload.

Where the T-series reproduces the paper's closed-world batch tables, the
S-series measures the runtime as a *service*: seeded arrival streams
(:mod:`repro.workloads.arrivals`) inject balancer-placed request chares
into the farm (:mod:`repro.apps.serving`) and per-request tail latency is
read off the kernel's recorder seam (:mod:`repro.metrics.latency`): folded
as the run goes when the sweep executes the descriptor, walked from the
causal event log when a trace is exported — the same numbers either way.

* **S1** — arrival-rate sweep to saturation: p50/p95/p99 vs offered
  utilization; the tail should grow super-linearly past the ~80% knee.
* **S2** — burst tolerance: same mean rate, increasingly bursty arrival
  processes (MMPP, diurnal ramp), with and without admission shedding.
* **S3** — balancer comparison at fixed load: every placement strategy
  over the identical request stream.
* **S4** — serving under faults: the PR-2 drop/stall models underneath a
  live request stream; every offered request must still complete.

Each experiment is a plan of declarative run descriptors and a report
over their rows, so the S-series parallelises (``--jobs``) and caches
exactly like the paper tables; latency digests ride inside each run's
answer, so cache replay is byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.harness import describe
from repro.bench.tables import ExperimentResult, Plan, format_table
from repro.faults import FaultConfig
from repro.machine.presets import make_machine
from repro.workloads.arrivals import Bursty, Diurnal, Poisson, ServiceSpec

__all__ = ["exp_s1", "exp_s2", "exp_s3", "exp_s4", "exp_s5", "exp_s6"]

#: Per-stage service demand used by every S experiment (exponential with a
#: mean of 400 work units ≈ 1.2 ms on ncube2).
SERVICE = ServiceSpec("exp", 400.0)
MACHINE = "ncube2"


def _request_cost(pes: int, machine: str = MACHINE) -> float:
    """Mean busy-time one request costs its serving PE (seconds)."""
    p = make_machine(machine, pes).params
    return SERVICE.mean * p.work_unit_time + p.sched_overhead + p.recv_overhead


def _rate(util: float, pes: int, machine: str = MACHINE) -> float:
    """Offered arrival rate that loads a P-PE farm to ``util``."""
    return util * pes / _request_cost(pes, machine)


def _ms(value: Any) -> Any:
    return None if value is None else round(value * 1e3, 3)


def _digest_cells(ans: Dict[str, Any]) -> List[Any]:
    """The shared latency columns: p50/p95/p99/mean/max (ms), wait share."""
    wait_share = (
        round(100.0 * ans["mean_queue_wait"] / ans["mean"], 1)
        if ans["mean"] else None
    )
    return [_ms(ans["p50"]), _ms(ans["p95"]), _ms(ans["p99"]),
            _ms(ans["mean"]), _ms(ans["max"]), wait_share]


def _series(ans: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-friendly per-run record for ``ExperimentResult.data``."""
    return {k: ans[k] for k in (
        "offered", "completed", "shed", "p50", "p95", "p99",
        "mean", "min", "max", "mean_queue_wait", "mean_service",
        "mean_transit",
    )}


# ------------------------------------------------------------------------ S1
def exp_s1(scale: str = "paper") -> Plan:
    """Arrival-rate sweep to saturation (the tail-latency knee).

    An open-loop Poisson stream against a central-manager farm — the
    closest simulated analogue of a front-end dispatcher feeding P
    workers (M/M/k-like).  Below the knee, p99 tracks the service-time
    tail; past ~80% utilization queueing dominates and the tail grows
    super-linearly until, above 100%, latency is bounded only by the
    stream's length.
    """
    pes = 8 if scale == "quick" else 16
    count = 400 if scale == "quick" else 2000
    utils = ([0.4, 0.7, 0.9, 1.05] if scale == "quick"
             else [0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1])
    descs = [
        describe(
            "serving", MACHINE, pes, balancer="central",
            arrivals=Poisson(rate=_rate(u, pes), count=count),
            service=SERVICE,
        )
        for u in utils
    ]

    def report(rows_out) -> ExperimentResult:
        headers = ["util %", "rate/s", "reqs", "done", "p50 (ms)", "p95 (ms)",
                   "p99 (ms)", "mean (ms)", "max (ms)", "wait %"]
        table_rows = []
        series = []
        for util, row in zip(utils, rows_out):
            ans = row.answer
            assert ans["completed"] == ans["offered"], (
                f"S1 lost requests at util={util}: {ans}")
            table_rows.append(
                [round(util * 100, 1), round(_rate(util, pes), 1),
                 ans["offered"], ans["completed"]] + _digest_cells(ans))
            series.append({"util": util, "rate": _rate(util, pes),
                           **_series(ans)})
        data = {"machine": MACHINE, "pes": pes, "count": count,
                "balancer": "central", "service_mean_units": SERVICE.mean,
                "series": series}
        return ExperimentResult(
            "S1",
            "open-loop saturation sweep (tail-latency knee)",
            format_table(
                headers, table_rows,
                title=f"Request latency vs offered load on {MACHINE}, P={pes}, "
                f"central balancer, {count} Poisson arrivals "
                f"(exp service, mean {SERVICE.mean:g} units)",
            ),
            data,
        )
    return descs, report


# ------------------------------------------------------------------------ S2
def exp_s2(scale: str = "paper") -> Plan:
    """Burst tolerance: same mean rate, increasingly bursty arrivals.

    All four processes offer the same long-run rate (75% utilization);
    what changes is how the arrivals clump.  MMPP bursts several times
    over capacity melt the tail even though the mean load is moderate —
    and a queue-depth admission bound trades a small shed fraction for a
    bounded tail (the overload-control story).
    """
    pes = 8 if scale == "quick" else 16
    count = 300 if scale == "quick" else 1500
    util = 0.75
    rate = _rate(util, pes)
    processes = [
        ("poisson", Poisson(rate=rate, count=count)),
        ("mmpp x2.8", Bursty(rate_low=0.4 * rate, rate_high=2.8 * rate,
                             count=count, dwell_low=3e-3, dwell_high=1e-3)),
        ("mmpp x7.3", Bursty(rate_low=0.3 * rate, rate_high=7.3 * rate,
                             count=count, dwell_low=4.5e-3, dwell_high=0.5e-3)),
        ("diurnal", Diurnal(rate_mean=rate, count=count, amplitude=0.8,
                            period=20e-3)),
    ]
    combos = [(label, spec, shed) for label, spec in processes
              for shed in (None, 6)]
    descs = [
        describe("serving", MACHINE, pes, balancer="central",
                 arrivals=spec, service=SERVICE, shed_above=shed)
        for _, spec, shed in combos
    ]

    def report(rows_out) -> ExperimentResult:
        headers = ["arrivals", "admission", "done", "shed", "p50 (ms)",
                   "p95 (ms)", "p99 (ms)", "mean (ms)", "max (ms)", "wait %"]
        table_rows = []
        series = []
        for (label, spec, shed), row in zip(combos, rows_out):
            ans = row.answer
            assert ans["completed"] + ans["shed"] == ans["offered"], (
                f"S2 lost requests for {label}: {ans}")
            table_rows.append(
                [label, "-" if shed is None else f"q<={shed}",
                 ans["completed"], ans["shed"]] + _digest_cells(ans))
            series.append({"arrivals": label, "shed_above": shed,
                           "spec": type(spec).__name__, **_series(ans)})
        data = {"machine": MACHINE, "pes": pes, "count": count, "util": util,
                "rate": rate, "series": series}
        return ExperimentResult(
            "S2",
            "burst tolerance at fixed mean load",
            format_table(
                headers, table_rows,
                title=f"Same mean rate ({util * 100:.0f}% utilization), "
                f"increasing burstiness on {MACHINE}, P={pes}; admission "
                "bound sheds when the landing PE's queue exceeds 6",
            ),
            data,
        )
    return descs, report


# ------------------------------------------------------------------------ S3
def exp_s3(scale: str = "paper") -> Plan:
    """Balancer comparison serving the identical request stream.

    The paper's central question — adaptive load balancing — restated for
    live traffic: every placement strategy gets the same arrivals and the
    same per-request demands (same seed), so latency differences are pure
    placement quality.  Run at a moderate and a near-saturation load.
    """
    pes = 8 if scale == "quick" else 16
    count = 300 if scale == "quick" else 1500
    balancers = ["random", "roundrobin", "central", "acwn", "token"]
    utils = [0.7] if scale == "quick" else [0.7, 0.95]
    combos = [(u, b) for u in utils for b in balancers]
    descs = [
        describe("serving", MACHINE, pes, balancer=bal,
                 arrivals=Poisson(rate=_rate(u, pes), count=count),
                 service=SERVICE)
        for u, bal in combos
    ]

    def report(rows_out) -> ExperimentResult:
        headers = ["balancer", "util %", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                   "mean (ms)", "max (ms)", "wait %", "remote seeds"]
        table_rows = []
        series = []
        for (util, bal), row in zip(combos, rows_out):
            ans = row.answer
            assert ans["completed"] == ans["offered"], (
                f"S3 lost requests for {bal}: {ans}")
            table_rows.append([bal, round(util * 100, 1)] + _digest_cells(ans)
                              + [row.stats.lb_seeds_remote])
            series.append({"balancer": bal, "util": util,
                           "remote_seeds": row.stats.lb_seeds_remote,
                           **_series(ans)})
        data = {"machine": MACHINE, "pes": pes, "count": count,
                "utils": utils, "series": series}
        return ExperimentResult(
            "S3",
            "balancer comparison under live traffic",
            format_table(
                headers, table_rows,
                title=f"Identical Poisson stream, every balancer, {MACHINE} "
                f"P={pes} ({count} requests per cell)",
            ),
            data,
        )
    return descs, report


# ------------------------------------------------------------------------ S4
def exp_s4(scale: str = "paper") -> Plan:
    """Serving under faults: drop/stall/slow-PE models beneath live load.

    The resilience claim (R-series) restated for a service: message loss
    and PE stalls cost tail latency, never requests.  Every offered
    request must complete — the ack/retry protocol and idempotent receive
    make the farm lossless even at 15% drop — while p99 degrades
    gracefully with fault severity.
    """
    pes = 8 if scale == "quick" else 16
    count = 250 if scale == "quick" else 1200
    util = 0.7
    rate = _rate(util, pes)
    severities = [
        ("none", None),
        ("drop 5%", FaultConfig(drop_prob=0.05)),
        ("drop 15%", FaultConfig(drop_prob=0.15)),
        ("stalls", FaultConfig(stall_prob=0.02, stall_time=1e-3)),
        ("slow PE", FaultConfig(slow_pes=(1,), slow_factor=4.0)),
    ]
    descs = []
    for _, faults in severities:
        kwargs: Dict[str, Any] = dict(
            balancer="central",
            arrivals=Poisson(rate=rate, count=count), service=SERVICE,
        )
        if faults is not None:
            kwargs["faults"] = faults
        descs.append(describe("serving", MACHINE, pes, **kwargs))

    def report(rows_out) -> ExperimentResult:
        headers = ["faults", "done", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                   "mean (ms)", "max (ms)", "wait %", "retries", "stalls"]
        table_rows = []
        series = []
        for (label, faults), row in zip(severities, rows_out):
            ans = row.answer
            assert ans["completed"] == ans["offered"], (
                f"S4 lost requests under {label}: {ans}")
            st = row.stats
            table_rows.append([label, ans["completed"]] + _digest_cells(ans)
                              + [st.retries, st.stalls])
            series.append({"faults": label, "retries": st.retries,
                           "stalls": st.stalls, **_series(ans)})
        data = {"machine": MACHINE, "pes": pes, "count": count, "util": util,
                "rate": rate, "series": series}
        return ExperimentResult(
            "S4",
            "serving under injected faults",
            format_table(
                headers, table_rows,
                title=f"Live stream at {util * 100:.0f}% utilization under "
                f"fault models, {MACHINE} P={pes} (every offered request "
                "completes in every arm)",
            ),
            data,
        )
    return descs, report


# ------------------------------------------------------------------------ S5
def exp_s5(scale: str = "paper") -> Plan:
    """Serving on sparse large-P farms: machine size is free.

    The sparse-PE kernel's serving claim: a fixed request stream against
    farms of 10³–10⁵ PEs costs the same — the central manager only ever
    materializes the ranks it assigns work to, so resident state and
    host cost track the request count, not the machine size.  Latency
    digests must be essentially identical across farm sizes (the stream
    never saturates even the smallest farm).  Uses the cluster preset
    (fully connected, so farm size does not change hop costs).
    """
    pes_list = [1_000, 10_000] if scale == "quick" else [1_000, 10_000,
                                                         100_000]
    count = 250 if scale == "quick" else 1000
    machine = "cluster"
    # Fixed offered rate, sized against the smallest farm at low load so
    # every arm sees the identical stream (same seeds, same timestamps).
    rate = _rate(0.3, pes_list[0], machine)
    descs = [
        describe("serving", machine, pes, sparse=True, balancer="central",
                 arrivals=Poisson(rate=rate, count=count), service=SERVICE)
        for pes in pes_list
    ]

    def report(rows_out) -> ExperimentResult:
        headers = ["P", "done", "touched PEs", "p50 (ms)", "p95 (ms)",
                   "p99 (ms)", "mean (ms)", "host (s)"]
        table_rows = []
        series = []
        for pes, row in zip(pes_list, rows_out):
            ans = row.answer
            assert ans["completed"] == ans["offered"], (
                f"S5 lost requests at P={pes}: {ans}")
            touched = len(row.stats.pe_rows)
            assert touched <= count + 2, (
                f"S5 touched {touched} ranks for {count} requests at P={pes}")
            table_rows.append([pes, ans["completed"], touched,
                               _ms(ans["p50"]), _ms(ans["p95"]),
                               _ms(ans["p99"]), _ms(ans["mean"]),
                               round(row.host_seconds, 3)])
            series.append({"pes": pes, "touched": touched,
                           "host_seconds": row.host_seconds, **_series(ans)})
        data = {"machine": machine, "pes": pes_list, "count": count,
                "rate": rate, "series": series}
        return ExperimentResult(
            "S5",
            "serving on sparse large-P farms",
            format_table(
                headers, table_rows,
                title=f"Fixed {count}-request stream against sparse cluster "
                "farms (touched = materialized PE ranks)",
            ),
            data,
        )
    return descs, report


# ------------------------------------------------------------------------ S6
def exp_s6(scale: str = "paper") -> Plan:
    """Trace-free tail latency from the online telemetry plane.

    Two claims in one table.  **Validation** (P ≤ 10⁴): runs carrying both
    the exact per-request recorder (the latency fold under a sweep, the
    event log and its walk when traced — equal float for float) *and* the
    telemetry plane show the online histogram's p50/p95/p99 landing in (or
    adjacent to) the bucket of the exact value — the histogram's
    ≤1/subbuckets relative-width guarantee made empirical.  **Scale** (the largest farm): the same
    stream with tracing disabled entirely — the regime where an O(events)
    log is off the table — still yields the full latency digest, because
    the online histogram is O(buckets) regardless of request count or
    farm size.
    """
    from repro.obs.registry import Histogram

    if scale == "quick":
        pes_list, count, demo_pes = [1_000], 250, 10_000
    else:
        pes_list, count, demo_pes = [1_000, 10_000], 1000, 100_000
    machine = "cluster"
    rate = _rate(0.3, pes_list[0], machine)
    # Snapshot every eighth of the arrival span.  The run's virtual time is
    # drain-dominated (in-flight requests outlive the stream), so the
    # stream itself gets ~8 snapshots and the drain tail streams more —
    # bounded by repro.obs.telemetry.MAX_SNAPSHOTS, never by guesswork here.
    interval = count / rate / 8.0
    common: Dict[str, Any] = dict(
        sparse=True, balancer="central", service=SERVICE,
        arrivals=Poisson(rate=rate, count=count),
    )
    descs = [
        # Validation arms: exact recorder AND telemetry on the same run.
        describe("serving", machine, pes, metrics=interval, **common)
        for pes in pes_list
    ] + [
        # Scale arm: telemetry only.  ``trace_events=None`` reaches
        # run_serving through the descriptor params and suppresses its
        # default log, the sweep's fold and any kinds a tracing executor
        # adds — no recorder exists anywhere.
        describe("serving", machine, demo_pes, metrics=interval,
                 trace_events=None, **common)
    ]

    def report(rows_out) -> ExperimentResult:
        probe = Histogram()  # bucket geometry only (default subbuckets)
        headers = ["P", "done", "lens", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                   "mean (ms)", "max \N{GREEK CAPITAL LETTER DELTA}bucket",
                   "snaps", "host (s)"]
        table_rows = []
        series = []
        for pes, row in zip(pes_list + [demo_pes], rows_out):
            ans = row.answer
            online = ans["online"]
            assert ans["completed"] == ans["offered"] == online["count"], (
                f"S6 online digest disagrees with the collector at P={pes}: {ans}")
            payload = row.telemetry
            assert payload is not None, f"S6 row lost its telemetry at P={pes}"
            snaps = len(payload["snapshots"])
            validated = ans["p50"] is not None
            max_diff = None
            if validated:
                diffs = []
                for q in ("p50", "p95", "p99"):
                    exact, est = ans[q], online[q]
                    diffs.append(abs(probe.bucket_index(exact)
                                     - probe.bucket_index(est)))
                max_diff = max(diffs)
                assert max_diff <= 1, (
                    f"S6 online quantile strayed {max_diff} buckets from the "
                    f"trace walk at P={pes}")
                table_rows.append(
                    [pes, ans["completed"], "trace", _ms(ans["p50"]),
                     _ms(ans["p95"]), _ms(ans["p99"]), _ms(ans["mean"]),
                     "", "", ""])
            table_rows.append(
                [pes, ans["completed"], "online", _ms(online["p50"]),
                 _ms(online["p95"]), _ms(online["p99"]), _ms(online["mean"]),
                 max_diff if validated else "-", snaps,
                 round(row.host_seconds, 3)])
            series.append({
                "pes": pes, "validated": validated, "max_bucket_diff": max_diff,
                "snapshots": snaps, "host_seconds": row.host_seconds,
                "online": {k: online[k] for k in
                           ("p50", "p95", "p99", "count", "mean", "min", "max")},
                **({"trace": {k: ans[k] for k in ("p50", "p95", "p99", "mean")}}
                   if validated else {}),
                "offered": ans["offered"], "completed": ans["completed"],
            })
        data = {"machine": machine, "pes": pes_list, "demo_pes": demo_pes,
                "count": count, "rate": rate, "interval": interval,
                "subbuckets": probe.subbuckets, "series": series}
        return ExperimentResult(
            "S6",
            "online tail latency vs the trace walk, then trace-free at scale",
            format_table(
                headers, table_rows,
                title=f"Telemetry-plane latency digests, {count}-request stream "
                f"on sparse {machine} farms; P={demo_pes} runs with tracing "
                "disabled (online histogram is the only lens)",
            ),
            data,
        )
    return descs, report
