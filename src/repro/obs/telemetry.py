"""The runtime telemetry plane: always-cheap counters for runs tracing can't see.

PR 5's EventLog records *every* event — perfect fidelity, O(events) memory,
and therefore unusable on the P=10\N{SUPERSCRIPT FIVE}–10\N{SUPERSCRIPT SIX}
sparse machines or million-request serving streams.  :class:`Telemetry` is
the complementary lens (the Projections lineage pairs the two the same
way): constant-size counters, gauges, and log-bucketed histograms
aggregated *as the run executes*, plus periodic virtual-time snapshots of
the kernel's own accounting.

Design constraints, in order:

1. **Inert when off.**  Telemetry is a recorder on the kernel's one
   observer slot; with it and the event log off, that costs one ``is
   None`` check per hook site.  Golden traces stay bit-identical.
2. **Invisible when on.**  Telemetry schedules no engine events, sends no
   messages, and never touches an envelope: a telemetry-on run produces
   exactly the virtual time, event count, and answer of the telemetry-off
   run.  Periodic snapshots piggyback on the ``exec_end`` hook (a lazy
   "has the clock crossed the next boundary?" compare) instead of engine
   timers, which is what keeps the schedule unperturbed.
3. **Off the send path.**  All per-message metrics are derived from the
   PEState send/execute counters ``_deliver`` maintains anyway; telemetry
   keeps the per-message hooks as no-ops.

``exec_end`` is the only hot-path cost; everything label-shaped it needs
is cached in plain dicts keyed by envelope fields, so the steady state is
a few dict hits, one ``frexp``, and an int add per execution.
"""

from __future__ import annotations

import time as _host_time
from dataclasses import dataclass
from math import frexp as _frexp
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import Kind
from repro.obs.registry import Histogram, MetricRegistry
from repro.trace.events import Recorder
from repro.util.errors import ConfigurationError, need_int, need_real

__all__ = ["TelemetryConfig", "Telemetry"]

_SEED = Kind.SEED

#: Kind tag -> label value used on ``exec_total`` series.
_KIND_LABEL = {
    Kind.APP: "app",
    Kind.SEED: "seed",
    Kind.BOC: "boc",
    Kind.SVC: "svc",
}


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of one telemetry plane.

    ``interval`` is the virtual-time snapshot period; ``0.0`` records only
    the final snapshot (cheapest).  ``per_pe`` controls whether snapshots
    refresh per-rank gauge series (sparse: touched ranks only).
    ``subbuckets`` sets histogram resolution — relative bucket width is at
    most ``1/subbuckets`` (~3% at the default 32).  ``max_snapshots``
    bounds snapshot memory; once hit, periodic flushing stops (the final
    snapshot still lands) and the overflow is counted, never silent.
    """

    interval: float = 0.0
    per_pe: bool = True
    subbuckets: int = 32
    max_snapshots: int = 4096

    def __post_init__(self) -> None:
        need_real("telemetry interval", self.interval, strict=False)
        # 2.5 subbuckets give float bucket indices .prom cannot print.
        need_int("telemetry subbuckets", self.subbuckets, 1)
        need_int("telemetry max_snapshots", self.max_snapshots, 1)


class Telemetry(Recorder):
    """One kernel's online metric plane (pass as ``Kernel(telemetry=...)``)."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricRegistry(subbuckets=self.config.subbuckets)
        #: Periodic + final scrapes of the kernel's own accounting (plain
        #: dicts, JSONL-ready).
        self.snapshots: List[Dict[str, Any]] = []
        self.snapshots_dropped = 0
        self._kernel: Any = None
        self._wall0: Optional[float] = None
        self._next_flush: Optional[float] = None
        self._start = 0.0     # the current execution's start
        # Hot-path caches -------------------------------------------------
        # (kind, name) -> Counter for exec_total series.
        self._exec_counters: Dict[Tuple[int, str], Any] = {}
        self._exec_hist: Optional[Histogram] = None
        # Deferred end-of-execution observations: (histogram, t0) pairs
        # registered *during* an entry body and resolved with the
        # execution's true end time once its duration is known.
        self._pending: List[Tuple[Histogram, float]] = []
        # Serving side-channel: rid -> injection timestamp.
        self._inject: Dict[int, float] = {}
        self._named_hists: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]],
                                Histogram] = {}
        # rank -> (busy_time, msgs_executed, queue_depth) gauge triple.
        self._pe_gauges: Dict[int, Tuple[Any, Any, Any]] = {}

    # ---------------------------------------------------------------- binding
    def bind(self, kernel: Any) -> None:
        """Attach to a kernel (called by ``Kernel.__init__``; once only)."""
        if self._kernel is not None and self._kernel is not kernel:
            raise ConfigurationError(
                "a Telemetry instance observes one kernel; build a fresh one"
            )
        self._kernel = kernel
        self._wall0 = _host_time.perf_counter()
        self._exec_hist = self.registry.histogram("exec_duration_seconds")
        if self.config.interval > 0.0:
            self._next_flush = self.config.interval

    # --------------------------------------------------------------- hot path
    def exec_begin(self, start: float, pe: int, env: Any,
                   prev_end: float) -> None:
        # Executions never nest (the kernel reuses one ExecContext for the
        # same reason): this start is the one the next exec_end closes.
        self._start = start

    def exec_end(self, end: float, pe: int, env: Any, duration: float,
                 begin: Any, exited: bool) -> None:
        """Per-execution aggregation, after the execution's outbox flush
        (so a snapshot it takes counts that execution's sends)."""
        kind = env.kind
        name = env.chare_cls.__name__ if kind == _SEED else env.entry
        key = (kind, name)
        c = self._exec_counters.get(key)
        if c is None:
            c = self.registry.counter(
                "exec_total", kind=_KIND_LABEL.get(kind, "?"), name=name
            )
            self._exec_counters[key] = c
        c.value += 1
        # Histogram.observe inlined: this is the one per-execution call
        # site, and the extra method dispatch is measurable.
        h = self._exec_hist
        h.count += 1
        h.total += duration
        if duration < h._vmin:
            h._vmin = duration
        if duration > h._vmax:
            h._vmax = duration
        if duration > 0.0:
            m, e = _frexp(duration)
            s = h.subbuckets
            idx = e * s + int((m - 0.5) * 2.0 * s)
            b = h.buckets
            b[idx] = b.get(idx, 0) + 1
        else:
            h.zero += 1
        if self._pending:
            for hist, t0 in self._pending:
                hist.observe(end - t0)
            self._pending.clear()
        nf = self._next_flush
        if nf is not None and self._start >= nf:
            self._flush_due(self._start)

    # -------------------------------------------------- deferred observations
    def observe_at_exec_end(self, name: str, t0: float, /,
                            **labels: Any) -> None:
        """Record ``execution_end - t0`` into histogram ``name`` once the
        *current* execution's duration is known.

        Entry bodies run before the kernel prices their charged work, so an
        in-body ``now`` is the execution's *start*.  Deferring the
        observation to ``exec_end`` yields the same end timestamp the
        event log's ``exec_end`` carries — which is why online latencies
        reproduce the trace-walked ones exactly (up to bucketing).
        """
        key = (name, tuple(sorted(labels.items())))
        h = self._named_hists.get(key)
        if h is None:
            h = self.registry.histogram(name, **labels)
            self._named_hists[key] = h
        self._pending.append((h, t0))

    # ------------------------------------------------------- serving adapters
    def serving_inject(self, rid: int) -> None:
        """Stamp request ``rid``'s injection time (call from the source tick).

        The stamp is the seed's send departure — tick charges no work, so
        the outbox departure collapses to ``start + overhead_base``, the
        exact timestamp the trace walk recovers as ``inject_t``.
        """
        k = self._kernel
        self._inject[rid] = k.engine._now + k._overhead_base

    def serving_complete(self, rid: int, kind: str) -> None:
        """Close request ``rid`` (call from the final pipeline stage; the
        latency lands in ``serving_latency_seconds{kind=...}``)."""
        t0 = self._inject.pop(rid, None)
        if t0 is not None:
            self.observe_at_exec_end("serving_latency_seconds", t0, kind=kind)

    def serving_quantiles(
        self, quantiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> Dict[str, Any]:
        """Online latency digest over served requests (p50/p95/p99 …),
        the trace-free counterpart of ``repro.metrics.latency``'s summary."""
        h = self.registry.get("serving_latency_seconds", kind="done")
        out: Dict[str, Any] = {}
        if h is None:
            h = Histogram(self.config.subbuckets)
        for q in quantiles:
            out[f"p{q:g}"] = h.quantile(q)
        out["count"] = h.count
        out["mean"] = h.mean
        out["min"] = h.vmin
        out["max"] = h.vmax
        shed = self.registry.get("serving_latency_seconds", kind="shed")
        out["shed"] = 0 if shed is None else shed.count
        return out

    # -------------------------------------------------------------- snapshots
    def _flush_due(self, start: float) -> None:
        interval = self.config.interval
        nf = self._next_flush
        limit = self.config.max_snapshots
        while nf is not None and start >= nf:
            if len(self.snapshots) >= limit:
                self.snapshots_dropped += 1
                nf += interval
                continue
            self.snapshot(at=nf)
            nf += interval
        self._next_flush = nf

    def snapshot(self, at: Optional[float] = None,
                 label: str = "") -> Dict[str, Any]:
        """Scrape the kernel into one snapshot row (O(touched ranks)).

        Per-message and per-PE figures come from the PEState accounting
        ``_deliver`` maintains anyway, scraped here rather than hooked per
        envelope.
        """
        k = self._kernel
        if k is None:
            raise ConfigurationError("Telemetry.snapshot before bind()")
        engine = k.engine
        vtime = engine._now
        wall = _host_time.perf_counter() - self._wall0
        msgs_executed = seeds = system = 0
        msgs_sent = bytes_sent = 0
        sent = processed = 0
        busy = 0
        queued = 0
        per_pe = self.config.per_pe
        pe_gauges = self._pe_gauges
        reg = self.registry
        for rank, st in k.pes.items():
            msgs_executed += st.msgs_executed
            seeds += st.seeds_executed
            system += st.system_executed
            msgs_sent += st.msgs_sent
            bytes_sent += st.bytes_sent
            sent += st.counted_sent
            processed += st.counted_processed
            queued += st._queued
            if st.busy:
                busy += 1
            if per_pe:
                g = pe_gauges.get(rank)
                if g is None:
                    g = (
                        reg.gauge("pe_busy_seconds", pe=rank),
                        reg.gauge("pe_executions", pe=rank),
                        reg.gauge("pe_queue_depth", pe=rank),
                    )
                    pe_gauges[rank] = g
                g[0].value = st.busy_time
                g[1].value = (st.msgs_executed + st.seeds_executed
                              + st.system_executed)
                g[2].value = st._queued
        in_flight = sent - processed
        row: Dict[str, Any] = {
            "t": vtime if at is None else at,
            "vtime": vtime,
            "wall": wall,
            "events": engine.events_fired,
            "executions": msgs_executed + seeds + system,
            "msgs_executed": msgs_executed,
            "seeds_executed": seeds,
            "system_executed": system,
            "msgs_sent": msgs_sent,
            "bytes_sent": bytes_sent,
            "in_flight": in_flight,
            "queued": queued,
            "busy_pes": busy,
            "touched_pes": len(k.pes),
            "qd_waves": k.qd.waves_run,
            "qd_detected_at": k.qd.detected_at,
        }
        if label:
            row["label"] = label
        faults = k.faults
        if faults is not None:
            fc = dict(faults.counters())
            row["faults"] = fc
            for fkind, n in fc.items():
                reg.gauge("fault_events", fault=fkind).value = n
        reg.gauge("in_flight").value = in_flight
        reg.gauge("touched_pes").value = len(k.pes)
        reg.gauge("vtime_seconds").value = vtime
        self.snapshots.append(row)
        return row

    def on_run_end(self, truncated: bool = False) -> None:
        """Final scrape, stamped by ``Kernel.run`` on the way out."""
        row = self.snapshot(label="final")
        row["truncated"] = truncated

    # ---------------------------------------------------------------- payload
    def payload(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Plain-data projection of the whole plane ("repro-metrics-v1"):
        safe to pickle through pool workers and the result cache, and the
        unit the JSONL exporter streams."""
        k = self._kernel
        base_meta: Dict[str, Any] = {
            "interval": self.config.interval,
            "subbuckets": self.config.subbuckets,
            "snapshots_dropped": self.snapshots_dropped,
        }
        if k is not None:
            base_meta.update(
                num_pes=k.num_pes,
                balancer=type(k.balancer).__name__,
                sparse=k.sparse,
            )
        if meta:
            base_meta.update(meta)
        return {
            "format": "repro-metrics-v1",
            "meta": base_meta,
            "snapshots": list(self.snapshots),
            "series": self.registry.as_records(),
        }
