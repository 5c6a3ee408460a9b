"""Per-request latency of a serving run: the walk and the fold.

The serving workload (:mod:`repro.apps.serving`) adds **no** kernel-side
latency hooks of its own: every number here comes off the kernel's one
recorder seam (``Kernel(trace_events=...)``), by either of two readers that
give float-for-float the same per-request records:

* :func:`request_latencies` — the **walk**: reads a finished
  :class:`~repro.trace.events.EventLog` (or its exported records, or an
  :class:`~repro.trace.events.EventIndex` of either) and follows parent
  chains backwards.  The analysis tool for exported logs,
  and the fold's oracle;
* :class:`LatencyFold` — the **fold**: is itself the recorder, a summary
  that follows seeds (``hears = "seeds"``), keeps no rows, and folds each
  request as its final is sent.  What a sweep uses, since nobody reads a
  log off a kernel the sweep closes.

A request's life looks like::

    source exec ──send──▶ [lb ─▶ deliver ─▶ send]* ─▶ deliver ─▶ exec_begin
                                                        (stage 0)   │
                 stage 0 exec ──send──▶ ... ─▶ deliver ─▶ exec_begin │
                                                        (stage k)   ▼
                 final stage ──send "done"──▶ collector

so walking parents from the final stage's ``done`` (or ``shed``) send
recovers, exactly and per request:

* **injection time** — the timestamp of the *original* send event closest
  to the source execution (forwarded balancer legs get fresh uids but stay
  parent-linked through their ``lb``/``deliver``/``send`` hops, so the walk
  crosses them);
* **end-to-end latency** — final stage ``exec_end`` minus injection;
* **queue wait** — sum over stages of ``exec_begin.t - deliver.t`` (time
  spent enqueued behind other work on the serving PE);
* **service** — sum of stage execution durations; the remainder is wire
  transit plus balancer forwarding.

The walk requires the ``send``/``deliver``/``exec_begin``/``exec_end`` kinds
in the log (the serving runner records exactly those by default); the fold
gives what the walk gives on a log of those four kinds.  Both readers build
one tuple of :data:`REQUEST_FIELDS` per request, and one digest serves
both.  Percentiles use
the *nearest-rank* method — the p-th percentile of n samples is the
``ceil(p/100 * n)``-th smallest — so small hand-computed samples in tests
match exactly, with no interpolation ambiguity.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import SeedNote
from repro.trace.events import (DUR, EID, KIND, NAME, PARENT, T,
                                EventIndex, Recorder)

__all__ = ["request_latencies", "latency_summary",
           "LatencyFold"]

#: What a request is called in the serving app: the chare class whose
#: executions are pipeline stages, and the two entries that finish one.
REQUEST_NAME = "Request"
DONE_ENTRY = "done"
SHED_ENTRY = "shed"

#: The percentiles a latency digest reports (p50 / p95 / p99).
_QUANTILES = (50.0, 95.0, 99.0)
#: A digest's fields past the counts, each ``None`` when nothing was served.
_DIGEST_FIELDS = tuple(f"p{q:g}" for q in _QUANTILES) + (
    "mean", "min", "max", "mean_queue_wait", "mean_service", "mean_transit")

#: The fields of one request's record, in the order of the per-request
#: tuples both readers build (:func:`request_latencies` names them).
REQUEST_FIELDS = ("kind", "inject_t", "complete_t", "latency",
                  "queue_wait", "service", "stages")
_kind, _latency, _queue_wait, _service = (
    itemgetter(REQUEST_FIELDS.index(f))
    for f in ("kind", "latency", "queue_wait", "service"))

#: Request order: by injection, then completion.  A stable sort, so ties
#: keep the order their finals were sent in.
_by_time = itemgetter(1, 2)


# ========================================================= chain reconstruction
def _walk_to_origin(
    deliver: tuple, index: EventIndex
) -> Tuple[Optional[tuple], Optional[float]]:
    """Walk a delivery's parent chain to the execution that originated it.

    Returns ``(origin exec_begin row or None, original send timestamp)``.
    Crosses balancer forwarding legs (``send -> lb -> deliver -> send ...``)
    and fault retransmissions, keeping the *earliest* send seen — that is
    the injection point.  A parent cycle (impossible in a kernel-produced
    log, but hand-built or corrupted logs are legal inputs) ends the walk
    (:meth:`~repro.trace.events.EventIndex.ancestors`).
    """
    origin_send_t: Optional[float] = None
    for row in index.ancestors(deliver):
        kind = row[KIND]
        if kind == "exec_begin":
            return row, origin_send_t
        if kind == "send":
            origin_send_t = row[T]
    return None, origin_send_t


def _walk_request(final: tuple, index: EventIndex) -> Optional[tuple]:
    """The request tuple of one ``done``/``shed`` send, walked backwards
    through the pipeline from the stage execution that sent it; ``None``
    when no request stage sent it, or the chain is truncated or cyclic."""
    row_of = index.by_eid.get
    end_of = index.end_of
    begin = row_of(final[PARENT])
    if (begin is None or begin[KIND] != "exec_begin"
            or begin[NAME] != REQUEST_NAME):
        return None  # not sent by a request stage's execution
    final_end = end_of.get(begin[EID])
    complete_t = final_end[T] if final_end is not None else final[T]
    stages = 0
    queue_wait = 0.0
    service = 0.0
    inject_t: Optional[float] = None
    visited = set()
    cur = begin
    while cur is not None and cur[NAME] == REQUEST_NAME:
        if cur[EID] in visited:
            return None  # parent cycle in a hand-built/corrupted log
        visited.add(cur[EID])
        stages += 1
        stage_end = end_of.get(cur[EID])
        if stage_end is not None and stage_end[DUR] is not None:
            service += stage_end[DUR]
        deliver = row_of(cur[PARENT])
        if deliver is None or deliver[KIND] != "deliver":
            return None  # truncated log
        queue_wait += cur[T] - deliver[T]
        # The origin: the previous pipeline stage, or where the chain ends.
        cur, send_t = _walk_to_origin(deliver, index)
        if send_t is not None:
            inject_t = send_t
    if inject_t is None:
        return None
    return (SHED_ENTRY if final[NAME] == SHED_ENTRY else DONE_ENTRY,
            inject_t, complete_t, complete_t - inject_t,
            queue_wait, service, stages)


def _requests(source: Any) -> List[tuple]:
    """The request tuples of a fold (folded as the run went) or of a log
    (walked now, in the order the ``done``/``shed`` sends were logged)."""
    if isinstance(source, LatencyFold):
        return source.requests
    index = EventIndex.of(source)
    finals = [row for row in index.rows
              if row[KIND] == "send" and row[NAME] in (DONE_ENTRY, SHED_ENTRY)]
    return [r for r in (_walk_request(e, index) for e in finals)
            if r is not None]


def request_latencies(source: Any) -> List[Dict[str, Any]]:
    """One record per finished request, from an event log or a fold.

    ``source`` is an :class:`~repro.trace.events.EventIndex` or anything
    it reads (a live log's rows are read in place), or the
    :class:`LatencyFold` a run recorded into.  Each output record has
    ``kind`` ("done" for served, "shed" for requests the admission
    controller turned away), ``inject_t``, ``complete_t``, ``latency``,
    ``queue_wait``, ``service`` and ``stages``.  Output is sorted by
    injection time, then completion (ties keep the order their finals were
    sent in), so it is deterministic for a deterministic run regardless of
    log interleaving.
    """
    return [dict(zip(REQUEST_FIELDS, r))
            for r in sorted(_requests(source), key=_by_time)]


# ======================================================================== fold
def _request(entry: str, stage: SeedNote) -> Optional[tuple]:
    """The request tuple of a final sent by ``stage`` once it has ended:
    its stages visited last first, the walk's order, because float
    addition is not associative and the two must agree to the last bit.
    ``None`` when a stage was never delivered (the walk keeps no record)."""
    stages = 0
    queue_wait = 0.0
    service = 0.0
    cur = stage
    while True:
        stages += 1
        service += cur.dur
        if cur.arrived is None:
            return None
        queue_wait += cur.start - cur.arrived
        inject_t = cur.sent
        cur = cur.origin
        if cur is None:
            complete_t = stage.start + stage.dur
            return (entry, inject_t, complete_t, complete_t - inject_t,
                    queue_wait, service, stages)


class LatencyFold(Recorder):
    """A summary recorder that folds each request as its final is sent.

    It hears seeds (``hears = "seeds"``, see
    :class:`~repro.trace.events.Recorder`) of the ``Request`` class: each
    request stage's seed carries a :class:`~repro.core.messages.SeedNote`
    the kernel fills in, and the note of the stage that sent it
    (``origin``).  A ``done`` / ``shed`` send, the only traffic the kernel
    reports, folds the request at once, from the chain of notes behind
    it, into one tuple of :data:`REQUEST_FIELDS`.  A work-stealing
    balancer's donation re-sends a seed from its own handler, which starts
    a new chain there, as the walk does.

    No uid, map or row is kept: live state is one note per request stage
    in flight, queued or running, and a request's notes are freed by
    reference count once its final is folded.
    """

    hears = "seeds"
    follows = frozenset((REQUEST_NAME,))
    finals = frozenset((DONE_ENTRY, SHED_ENTRY))

    def __init__(self) -> None:
        self.ctx: Optional[SeedNote] = None
        self._requests: List[Optional[tuple]] = []
        # (position, entry, stage) of finals sent before their stage's
        # execution ended (a timed send from the stage): each holds its
        # place in _requests as None and is folded when they are read.
        self._early: List[tuple] = []

    @property
    def requests(self) -> List[tuple]:
        """One tuple per finished request, in the order its final was
        sent."""
        if self._early:
            for at, entry, stage in self._early:
                self._requests[at] = _request(entry, stage)
            self._early.clear()
            self._requests = [r for r in self._requests if r is not None]
        return self._requests

    # ------------------------------------------------------------------ hooks
    def msg_send(self, t: float, env) -> None:
        stage = self.ctx
        if stage is None:
            return              # not sent by a request stage
        if stage.dur is None:
            # The stage still runs, so its end is not stamped yet: keep
            # the final's place.
            self._early.append((len(self._requests), env.entry, stage))
            self._requests.append(None)
            return
        request = _request(env.entry, stage)
        if request is not None:
            self._requests.append(request)


# ===================================================================== summary
def latency_summary(source: Any) -> Dict[str, Any]:
    """Scalar latency digest of a serving run's event log or fold.

    ``source`` is anything :func:`request_latencies` reads.  Counts plus
    nearest-rank p50/p95/p99 over *served* requests, and the queue-wait /
    service / transit decomposition of the mean (summed in
    :func:`request_latencies` order).  Percentile fields are ``None``
    when no request completed (an empty summary must stay visibly empty,
    not read as a zero-latency system).
    """
    # map / compress / itemgetter: the digest reads every request, and
    # these iterate in C.
    reqs = _requests(source)
    served = sorted(compress(reqs, map(DONE_ENTRY.__eq__, map(_kind, reqs))),
                    key=_by_time)
    summary: Dict[str, Any] = {
        "requests": len(reqs),
        "completed": len(served),
        "shed": len(reqs) - len(served),
        **dict.fromkeys(_DIGEST_FIELDS),
    }
    latencies = sorted(map(_latency, served))
    if latencies:
        n = len(latencies)
        for q in _QUANTILES:
            summary[f"p{q:g}"] = latencies[max(1, math.ceil(q / 100.0 * n)) - 1]
        summary["mean"] = sum(latencies) / n
        summary["min"] = latencies[0]
        summary["max"] = latencies[-1]
        summary["mean_queue_wait"] = sum(map(_queue_wait, served)) / n
        summary["mean_service"] = sum(map(_service, served)) / n
        summary["mean_transit"] = (
            summary["mean"] - summary["mean_queue_wait"] - summary["mean_service"]
        )
    return summary
