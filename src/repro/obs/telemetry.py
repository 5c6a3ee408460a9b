"""The runtime telemetry plane: always-cheap counters for runs tracing can't see.

PR 5's EventLog records *every* event — perfect fidelity, O(events) memory,
and therefore unusable on the P=10\N{SUPERSCRIPT FIVE}–10\N{SUPERSCRIPT SIX}
sparse machines or million-request serving streams.  :class:`Telemetry` is
the complementary lens (the Projections lineage pairs the two the same
way): constant-size counts and log-bucketed histograms aggregated *as the
run executes*, plus periodic virtual-time snapshots of the kernel's own
accounting.

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

The plane keeps fixed fields, not a metric registry: a ``(kind, name)``
execution count, the execution-duration histogram, one serving-latency
histogram per completion kind, and the snapshot rows.  Every gauge of the
exported ``series`` (in-flight, touched PEs, virtual time, fault events,
per-PE busy time / executions / queue depth) is rendered once, by
:meth:`Telemetry.payload`, from the final snapshot row and the final
PEStates.
"""

from __future__ import annotations

import time as _host_time
from math import frexp as _frexp
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import Kind
from repro.obs.registry import SUBBUCKETS, Histogram
from repro.trace.events import Recorder
from repro.util.errors import ConfigurationError, need_interval

__all__ = ["Telemetry", "MAX_SNAPSHOTS"]

#: Bound on periodic snapshots; once hit, periodic flushing stops (the
#: final snapshot still lands) and the overflow is counted, never silent.
MAX_SNAPSHOTS = 4096

_SEED = Kind.SEED


def _series_key(rec: Dict[str, Any]) -> Tuple[Any, ...]:
    """Series order: name, then the ``repr`` of each label value."""
    return rec["name"], tuple((k, repr(v)) for k, v in
                              sorted(rec["labels"].items()))


class Telemetry(Recorder):
    """One kernel's online metric plane (pass as ``Kernel(telemetry=...)``).

    ``interval`` is the virtual-time snapshot period; ``0.0`` records only
    the final snapshot (cheapest).
    """

    def __init__(self, interval: float = 0.0) -> None:
        self.interval = need_interval("telemetry interval", interval)
        #: Periodic + final scrapes of the kernel's own accounting (plain
        #: dicts, JSONL-ready).
        self.snapshots: List[Dict[str, Any]] = []
        self.snapshots_dropped = 0
        #: ``(envelope kind, entry or seed class name) -> executions``.
        self.exec_counts: Dict[Tuple[int, str], int] = {}
        self.exec_hist = Histogram()
        #: Request latency per completion kind ("done" / "shed"), created
        #: on the first completion of that kind.
        self.latency: Dict[str, Histogram] = {}
        self._kernel: Any = None
        self._wall0: Optional[float] = None
        self._next_flush: Optional[float] = None
        self._start = 0.0     # the current execution's start
        # Deferred end-of-execution observations: (histogram, t0) pairs
        # registered *during* an entry body and resolved with the
        # execution's true end time once its duration is known.
        self._pending: List[Tuple[Histogram, float]] = []
        # Serving side-channel: rid -> injection timestamp.
        self._inject: Dict[int, float] = {}

    # ---------------------------------------------------------------- binding
    def bind(self, kernel: Any) -> None:
        """Attach to a kernel (called by ``Kernel.__init__``; once only)."""
        if self._kernel is not None and self._kernel is not kernel:
            raise ConfigurationError(
                "a Telemetry instance observes one kernel; build a fresh one"
            )
        self._kernel = kernel
        self._wall0 = _host_time.perf_counter()
        if self.interval > 0.0:
            self._next_flush = self.interval

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
        key = (kind, env.chare_cls.__name__ if kind == _SEED else env.entry)
        counts = self.exec_counts
        counts[key] = counts.get(key, 0) + 1
        # Histogram.observe inlined: this is the one per-execution call
        # site, and the extra method dispatch is measurable.  Durations
        # are finite here, so the non-finite check is not needed.
        h = self.exec_hist
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
        latency lands in ``serving_latency_seconds{kind=...}``).

        Entry bodies run before the kernel prices their charged work, so an
        in-body ``now`` is the execution's *start*.  The observation is
        deferred to ``exec_end``, which has the same end timestamp the
        event log's ``exec_end`` carries — which is why online latencies
        reproduce the trace-walked ones exactly (up to bucketing).
        """
        t0 = self._inject.pop(rid, None)
        if t0 is not None:
            h = self.latency.get(kind)
            if h is None:
                h = self.latency[kind] = Histogram()
            self._pending.append((h, t0))

    def serving_quantiles(self) -> Dict[str, Any]:
        """Online latency digest over served requests (p50/p95/p99 …),
        the trace-free counterpart of ``repro.metrics.latency``'s summary."""
        h = self.latency.get("done") or Histogram()
        shed = self.latency.get("shed")
        return {
            "p50": h.quantile(50.0),
            "p95": h.quantile(95.0),
            "p99": h.quantile(99.0),
            "count": h.count,
            "mean": h.mean,
            "min": h.vmin,
            "max": h.vmax,
            "shed": 0 if shed is None else shed.count,
        }

    # -------------------------------------------------------------- snapshots
    def _flush_due(self, start: float) -> None:
        interval = self.interval
        nf = self._next_flush
        while nf is not None and start >= nf:
            if len(self.snapshots) >= MAX_SNAPSHOTS:
                self.snapshots_dropped += 1
            else:
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
        for st in k.pes.values():
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
            "in_flight": sent - processed,
            "queued": queued,
            "busy_pes": busy,
            "touched_pes": len(k.pes),
            "qd_waves": k.qd.waves_run,
            "qd_detected_at": k.qd.detected_at,
        }
        if label:
            row["label"] = label
        if k.faults is not None:
            row["faults"] = dict(k.faults.counters())
        self.snapshots.append(row)
        return row

    def on_run_end(self, truncated: bool = False) -> None:
        """Final scrape, stamped by ``Kernel.run`` on the way out."""
        row = self.snapshot(label="final")
        row["truncated"] = truncated

    # ---------------------------------------------------------------- payload
    def _series(self) -> List[Dict[str, Any]]:
        """Every metric's final state, one record per labeled series."""
        def rec(name, mtype, value, /, **labels):  # a label may be "name"
            return {"name": name, "type": mtype, "labels": labels,
                    "value": value}

        out = [rec("exec_duration_seconds", "histogram",
                   self.exec_hist.as_record())]
        out += [rec("exec_total", "counter", n, kind=Kind.NAMES[kind],
                    name=name)
                for (kind, name), n in self.exec_counts.items()]
        out += [rec("serving_latency_seconds", "histogram", h.as_record(),
                    kind=kind) for kind, h in self.latency.items()]
        if self.snapshots:
            last = self.snapshots[-1]
            out += [rec("in_flight", "gauge", last["in_flight"]),
                    rec("touched_pes", "gauge", last["touched_pes"]),
                    rec("vtime_seconds", "gauge", last["vtime"])]
            out += [rec("fault_events", "gauge", n, fault=fault)
                    for fault, n in last.get("faults", {}).items()]
            for rank, st in self._kernel.pes.items():
                out += [
                    rec("pe_busy_seconds", "gauge", st.busy_time, pe=rank),
                    rec("pe_executions", "gauge",
                        st.msgs_executed + st.seeds_executed
                        + st.system_executed, pe=rank),
                    rec("pe_queue_depth", "gauge", st._queued, pe=rank),
                ]
        out.sort(key=_series_key)
        return out

    def payload(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Plain-data projection of the whole plane ("repro-metrics-v1"):
        safe to pickle through pool workers and the result cache, and the
        unit the JSONL exporter streams."""
        k = self._kernel
        base_meta: Dict[str, Any] = {
            "interval": self.interval,
            "subbuckets": SUBBUCKETS,
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
            "series": self._series(),
        }
