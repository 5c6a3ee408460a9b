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
   combine on the way up.  The fan-out, the fold and the span table are
   the :class:`~repro.core.services.TreeService` layer the sharing
   collectives run on; this module keeps the two-wave decision.
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

from typing import Optional, Tuple

from repro.core.handles import ChareHandle
from repro.core.services import TreeService
from repro.util.errors import QuiescenceError

__all__ = ["QuiescenceService"]

_WAVE_WORK = 3.0  # bookkeeping work units per wave handler


def _add_counts(a: tuple, b: tuple) -> tuple:
    """Fold two (sent, processed, idle) partials of a wave."""
    return (a[0] + b[0], a[1] + b[1], a[2] and b[2])


class QuiescenceService(TreeService):
    """Per-kernel quiescence detector."""

    name = "qd"

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self._callback: Optional[Tuple[ChareHandle, str]] = None
        self._wave = 0
        self._prev_totals: Optional[Tuple[int, int]] = None
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
        # The span table holds the current wave alone, keyed by its number.
        # A new number is above every key still held, so what a superseded
        # wave left goes, and its late stragglers find no span.
        self.partials.clear()
        self.spans.clear()
        self.waves_run += 1
        kernel = self.kernel
        self.span_of(self._wave)
        events = kernel.trace
        if events is None:
            self.send(0, 0, "req", (self._wave,))
            return
        # Wave events chain to the execution that requested detection (or
        # the previous root decision, via _trace_parent when this fires
        # from the bare interval timer outside any execution).
        parent = events.ctx if events.ctx is not None else self._trace_parent
        wave_eid = events.record(
            "qd", kernel.engine.now, 0, name="wave", parent=parent,
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
            return
        if op != "req" and op != "up":  # pragma: no cover - defensive
            raise QuiescenceError(f"unknown QD op {op!r}")
        span = self.spans.get(args[0])
        if span is None:
            # A req or up from a superseded wave: it must neither fan out
            # over the current span nor mix into the current totals.
            return
        if op == "req":
            self.fan_out(pe, span, "req", args)
            state = kernel.pes[pe]
            value = (state.counted_sent, state.counted_processed,
                     not state.has_work())
        else:
            value = args[1:]
        total = self.fold(args[:1], pe, value, span, _add_counts, "up")
        if total is not None:
            self._root_decide(*total)

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
        events = kernel.trace
        if stable and self._prev_totals == (sent, processed):
            target, entry = self._callback  # type: ignore[misc]
            self._callback = None
            self._prev_totals = None
            self.partials.clear()
            self.spans.clear()
            self.detected_at = kernel.now
            self.work_end_at_detection = kernel.last_counted_exec_time
            if events is not None:
                events.record(
                    "qd", kernel.engine.now, 0, name="detect",
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
        kernel.engine.schedule_call(kernel.engine.now + kernel.qd_interval,
                                    self._start_wave, None)
