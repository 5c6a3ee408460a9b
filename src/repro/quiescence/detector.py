"""Quiescence detection.

The Chare Kernel lets a program ask to be told when the computation has
*quiesced*: no entry method is executing, no counted message is queued, and
none is in flight.  This is how tree-structured programs with no natural
"last message" (count all N-queens solutions, exhaust a search space)
terminate.

Algorithm — the tree-based, two-phase message-counting scheme of the Charm
lineage (Sinha & Kalé):

1. The root (PE 0) starts a **wave**: a request flows down the wave's span
   (``kernel.span()``, taken as the wave starts); every PE on it replies
   with its (counted-sent, counted-processed, locally-idle) triple; replies
   combine on the way up.
2. The root declares quiescence only after **two consecutive waves** return
   identical totals with ``sent == processed`` and every PE idle.  One wave
   is not enough: the counts are sampled at different times on different
   PEs, so a message can be processed "behind" one wave and re-sent "ahead"
   of it; two stable waves rule that out because any activity between waves
   changes the totals.
3. On success, the registered callback entry is invoked; otherwise the next
   wave starts after ``kernel.qd_interval`` of virtual time.

QD wave messages are *uncounted* system traffic — the detector must not see
its own probes.

On a sparse-startup machine the span is the *touched* ranks only, so a wave
costs O(k) messages on a P=10⁶ machine with k active PEs.  A message in
flight toward a not-yet-touched PE keeps the totals unbalanced (its send is
counted, its processing is not), so the wave correctly retries; the next
wave's span includes the newly materialized rank.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.handles import ChareHandle
from repro.core.services import Service
from repro.core.tree import Span
from repro.util.errors import QuiescenceError

__all__ = ["QuiescenceService"]

_WAVE_WORK = 3.0  # bookkeeping work units per wave handler


class QuiescenceService(Service):
    """Per-kernel quiescence detector."""

    name = "qd"

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self._callback: Optional[Tuple[ChareHandle, str]] = None
        self._wave = 0
        self._prev_totals: Optional[Tuple[int, int]] = None
        # (wave, pe) -> partial aggregation state
        self._agg: Dict[Tuple[int, int], dict] = {}
        # The span the *current* wave runs over; taken at each wave start.
        self._wave_span: Optional[Span] = None
        self.waves_run = 0
        self.detected_at: Optional[float] = None
        # Event id of the execution that scheduled the next wave timer;
        # restored as the causal parent when the bare timer fires, so
        # traced QD chains stay connected across the qd_interval sleep.
        self._trace_parent: Optional[int] = None
        # Snapshot of kernel.last_counted_exec_time taken *at* detection,
        # before the callback's own (counted) messages move it: the true
        # end of application work, for latency accounting (T9).
        self.work_end_at_detection: Optional[float] = None

    # ---------------------------------------------------------------- control
    def start(self, target: ChareHandle, entry: str, from_pe: int) -> None:
        """Register the callback and kick off wave 1 (root = PE 0)."""
        if self._callback is not None:
            raise QuiescenceError("quiescence detection already active")
        self._callback = (target, entry)
        self.send(from_pe, 0, "begin", ())

    def _start_wave(self, _: object = None) -> None:
        # The argument is the engine's callback payload; the timer has none.
        if self._callback is None:  # detection already fired
            return
        self._wave += 1
        # Purge partial aggregation state left by superseded waves.  A
        # normal wave drains itself (the root entry is deleted when its
        # subtree completes), but a wave abandoned mid-flight must not
        # leak its entries forever — and a late straggler from it must
        # never fold into the new wave's totals.
        if self._agg:
            wave = self._wave
            for key in [k for k in self._agg if k[0] < wave]:
                del self._agg[key]
        self.waves_run += 1
        kernel = self.kernel
        self._wave_span = kernel.span()
        events = kernel._trace
        if events is None:
            self.send(0, 0, "req", (self._wave,))
            return
        # Wave events chain to the execution that requested detection (or
        # the previous root decision, via _trace_parent when this fires
        # from the bare interval timer outside any execution).
        parent = events.ctx if events.ctx is not None else self._trace_parent
        wave_eid = events.record(
            "qd", kernel.engine._now, 0, name="wave", parent=parent,
            info={"wave": self._wave},
        )
        saved = events.ctx
        events.ctx = wave_eid
        self.send(0, 0, "req", (self._wave,))
        events.ctx = saved

    # --------------------------------------------------------------- handlers
    def handle(self, pe: int, op: str, args: tuple) -> None:
        kernel = self.kernel
        kernel.api_charge(_WAVE_WORK)

        if op == "begin":
            if pe != 0:
                raise QuiescenceError("QD begin must execute on PE 0")
            self._start_wave()

        elif op == "req":
            (wave,) = args
            # Stale reqs from superseded waves must not fan out over the
            # *current* span (their folds are dropped anyway).
            if wave != self._wave or self._wave_span is None:
                return
            for child in self._wave_span.children(pe):
                self.send(pe, child, "req", (wave,))
            state = kernel.pes[pe]
            self._fold(
                wave,
                pe,
                state.counted_sent,
                state.counted_processed,
                not state.has_work(),
            )

        elif op == "up":
            wave, sent, processed, idle = args
            self._fold(wave, pe, sent, processed, idle)

        else:  # pragma: no cover - defensive
            raise QuiescenceError(f"unknown QD op {op!r}")

    def _fold(self, wave: int, pe: int, sent: int, processed: int, idle: bool) -> None:
        if wave != self._wave:
            return  # straggler from a superseded wave: never mix totals
        span = self._wave_span
        key = (wave, pe)
        st = self._agg.get(key)
        if st is None:
            st = {
                "sent": 0,
                "processed": 0,
                "idle": True,
                "have": 0,
                "need": 1 + len(span.children(pe)),
            }
            self._agg[key] = st
        st["sent"] += sent
        st["processed"] += processed
        st["idle"] = st["idle"] and idle
        st["have"] += 1
        if st["have"] < st["need"]:
            return
        del self._agg[key]
        parent = span.parent(pe)
        if parent is not None:
            self.send(pe, parent, "up", (wave, st["sent"], st["processed"], st["idle"]))
            return
        self._root_decide(st["sent"], st["processed"], st["idle"])

    def _root_decide(self, sent: int, processed: int, idle: bool) -> None:
        kernel = self.kernel
        if sent < processed:
            # The wave samples each PE at a different instant: a PE sampled
            # early can send afterwards to a PE that processes the message
            # before *its* sample (and a sparse wave misses sends from a PE
            # touched mid-wave).  That is the sampling skew the two-wave
            # rule exists for, not an accounting violation — retry.  What
            # can never happen is more processing than sending at one
            # instant, so that is what the safety check reads.
            states = kernel.pes.states()
            now_sent = sum(s.counted_sent for s in states)
            now_processed = sum(s.counted_processed for s in states)
            if now_processed > now_sent:
                raise QuiescenceError(
                    f"QD accounting violated: processed {now_processed} > "
                    f"sent {now_sent}"
                )
            stable = False
        else:
            stable = idle and sent == processed
        events = kernel._trace
        if stable and self._prev_totals == (sent, processed):
            target, entry = self._callback  # type: ignore[misc]
            self._callback = None
            self._prev_totals = None
            self._agg.clear()
            self._wave_span = None
            self.detected_at = kernel.now
            self.work_end_at_detection = kernel.last_counted_exec_time
            if events is not None:
                events.record(
                    "qd", kernel.engine._now, 0, name="detect",
                    parent=events.ctx,
                    info={"sent": sent, "waves": self.waves_run},
                )
            kernel.send_app_from_service(0, target, entry, ())
            return
        self._prev_totals = (sent, processed) if stable else None
        if events is not None:
            # Remember this (root fold) execution: the interval timer below
            # fires outside any execution, and the next wave's events must
            # still chain back through the decision that scheduled it.
            self._trace_parent = events.ctx
        kernel.engine.schedule_call(kernel.engine._now + kernel.qd_interval,
                                    self._start_wave, None)
