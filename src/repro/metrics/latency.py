"""Per-request latency of a serving run: the walk and the fold.

The serving workload (:mod:`repro.apps.serving`) adds **no** kernel-side
latency hooks of its own: every number here comes off the kernel's one
recorder seam (``Kernel(trace_events=...)``), by either of two readers that
give float-for-float the same per-request records:

* :func:`request_latencies` — the **walk**: reads a finished
  :class:`~repro.trace.events.EventLog` (or its exported records) and
  follows parent chains backwards.  The analysis tool for exported logs,
  and the fold's oracle;
* :class:`LatencyFold` — the **fold**: is itself the recorder, keeps no
  rows, and links each request's stages while the run goes.  What a sweep
  uses, since nobody reads a log off a kernel the sweep closes.

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
sees every hook call and behaves as a log of those four kinds.  Percentiles use
the *nearest-rank* method — the p-th percentile of n samples is the
``ceil(p/100 * n)``-th smallest — so small hand-computed samples in tests
match exactly, with no interpolation ambiguity.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.trace.events import (_SEED_KIND, Event, EventLog, Recorder,
                                event_rows)

__all__ = ["request_latencies", "latency_summary",
           "LatencyFold"]

#: What a request is called in the serving app: the chare class whose
#: executions are pipeline stages, and the two entries that finish one.
REQUEST_NAME = "Request"
DONE_ENTRY = "done"
SHED_ENTRY = "shed"

#: The percentiles a latency digest reports (p50 / p95 / p99).
_QUANTILES = (50.0, 95.0, 99.0)

# Row positions the walk reads (rows are tuples in Event field order).
_EID, _KIND, _T, _PARENT, _NAME, _DUR = (
    Event._fields.index(f) for f in ("eid", "kind", "t", "parent", "name", "dur"))


# ========================================================= chain reconstruction
def _walk_to_origin(
    deliver: tuple, by_eid: Dict[int, tuple]
) -> Tuple[Optional[tuple], Optional[float]]:
    """Walk a delivery's parent chain to the execution that originated it.

    Returns ``(origin exec_begin row or None, original send timestamp)``.
    Crosses balancer forwarding legs (``send -> lb -> deliver -> send ...``)
    and fault retransmissions, keeping the *earliest* send seen — that is
    the injection point.  A parent cycle (impossible in a kernel-produced
    log, but hand-built or corrupted logs are legal inputs) terminates the
    walk instead of hanging it.
    """
    origin_send_t: Optional[float] = None
    cur = deliver
    seen = {cur[_EID]}
    while True:
        parent_eid = cur[_PARENT]
        parent = by_eid.get(parent_eid) if parent_eid is not None else None
        if parent is None or parent[_EID] in seen:
            return None, origin_send_t
        seen.add(parent[_EID])
        kind = parent[_KIND]
        if kind == "exec_begin":
            return parent, origin_send_t
        if kind == "send":
            origin_send_t = parent[_T]
        cur = parent


def request_latencies(
    records: Union[EventLog, Iterable[Any]],
) -> List[Dict[str, Any]]:
    """Reconstruct one record per finished request from the event log.

    ``records`` is an :class:`~repro.trace.events.EventLog` (its rows are
    read in place) or a sequence of event dicts / :class:`Event` views.
    Each output record has ``kind`` ("done" for served, "shed" for requests
    the admission controller turned away), ``inject_t``, ``complete_t``,
    ``latency``, ``queue_wait``, ``service`` and ``stages``.  Output is
    sorted by injection time, so it is deterministic for a deterministic
    run regardless of log interleaving.
    """
    # One pass: the eid index, each execution's exec_end, and the
    # completion sends the walks start from.
    by_eid: Dict[int, tuple] = {}
    end_of: Dict[int, tuple] = {}
    finals: List[tuple] = []
    final_names = (DONE_ENTRY, SHED_ENTRY)
    for row in event_rows(records):
        by_eid[row[_EID]] = row
        kind = row[_KIND]
        if kind == "exec_end":
            if row[_PARENT] is not None:
                end_of[row[_PARENT]] = row
        elif kind == "send" and row[_NAME] in final_names:
            finals.append(row)

    out: List[Dict[str, Any]] = []
    for e in finals:
        begin = by_eid.get(e[_PARENT])
        if begin is None or begin[_KIND] != "exec_begin":
            continue
        # Walk the pipeline backwards from the final stage's execution.
        stages = 0
        queue_wait = 0.0
        service = 0.0
        inject_t: Optional[float] = None
        final_end = end_of.get(begin[_EID])
        complete_t = final_end[_T] if final_end is not None else e[_T]
        cur = begin
        valid = True
        visited = set()
        while True:
            if cur[_NAME] != REQUEST_NAME:
                valid = False  # a completion sent by a non-request execution
                break
            if cur[_EID] in visited:
                valid = False  # parent cycle in a hand-built/corrupted log
                break
            visited.add(cur[_EID])
            stages += 1
            stage_end = end_of.get(cur[_EID])
            if stage_end is not None and stage_end[_DUR] is not None:
                service += stage_end[_DUR]
            deliver = by_eid.get(cur[_PARENT])
            if deliver is None or deliver[_KIND] != "deliver":
                valid = False  # truncated log
                break
            queue_wait += cur[_T] - deliver[_T]
            origin, send_t = _walk_to_origin(deliver, by_eid)
            if send_t is not None:
                inject_t = send_t
            if origin is not None and origin[_NAME] == REQUEST_NAME:
                cur = origin  # previous pipeline stage
                continue
            break
        if not valid or inject_t is None:
            continue
        out.append({
            "kind": "shed" if e[_NAME] == SHED_ENTRY else "done",
            "inject_t": inject_t,
            "complete_t": complete_t,
            "latency": complete_t - inject_t,
            "queue_wait": queue_wait,
            "service": service,
            "stages": stages,
        })
    out.sort(key=lambda r: (r["inject_t"], r["complete_t"]))
    return out


# ======================================================================== fold
# What every non-seed execution (a ``tick``, a collector entry, a service
# handler) is known by: the walk only asks such an execution for its name
# and finds it is not a request, so one shared record answers for all.
_OTHER: list = [None, 0.0, None, None, None]

_CLS, _START, _DELIVERY, _END, _EXEC_DUR = range(5)


class LatencyFold(Recorder):
    """A recorder that keeps per-request stage records instead of rows.

    It has the surface the kernel and its services call on an
    :class:`~repro.trace.events.EventLog` — ``msg_send``, ``msg_deliver``,
    ``exec_begin``, ``exec_end``, ``record``, ``send_parent``,
    ``deliver_parent`` and the causal cursor ``ctx`` — and behaves as a log
    of the four serving kinds: ``lb`` / ``qd`` / ``fault`` records pass their
    parent through.  The tokens it hands out are not event ids:

    * an execution is a record ``[class, start, delivery, end, dur]``
      (a seed's; every other execution is the shared :data:`_OTHER`);
    * a seed's send carries its *chain* ``(origin record, first send
      time)``: a send made inside an execution starts one, a forwarded leg
      (``ctx`` is the delivery that caused it) inherits it, so the first
      send stays the one closest to the origin — the injection point;
    * a seed's delivery is ``(time, chain)``, and becomes the ``delivery``
      of the record its execution opens;
    * a ``done`` / ``shed`` send notes ``(entry, time, ctx)`` as a final.

    Only seeds are followed: stages are seed executions, and a final is
    recognised by its entry name alone.  The per-uid maps are popped at
    delivery and at execution, so live state is the messages in flight plus
    one record per request stage, each reachable from its final; nothing
    points back, and the whole structure is freed by reference count.
    What stays in the maps after a run: seeds still in flight when the run
    exited, and deliveries of seeds a work-stealing balancer took out of
    the pool (it re-sends them under a fresh uid from its handler, which
    restarts the chain there — as the walk does).
    """

    def __init__(self) -> None:
        self.ctx: Any = None
        self._sent: Dict[int, tuple] = {}       # seed uid -> chain
        self._delivered: Dict[int, tuple] = {}  # seed uid -> (time, chain)
        self._finals: List[tuple] = []          # (entry, send time, ctx)

    # ------------------------------------------------------------------ hooks
    def msg_send(self, t: float, env) -> None:
        if env.kind == _SEED_KIND:
            ctx = self.ctx
            if type(ctx) is tuple:
                # A forwarded leg: ctx is the delivery it continues.
                chain = ctx[1]
                if chain[1] is None:
                    chain = (chain[0], t)
            else:
                chain = (ctx, t)  # sent by an execution, or by nobody
            self._sent[env.uid] = chain
        elif env.entry == DONE_ENTRY or env.entry == SHED_ENTRY:
            self._finals.append((env.entry, t, self.ctx))

    def msg_deliver(self, t: float, env) -> None:
        if env.kind == _SEED_KIND:
            uid = env.uid
            self._delivered[uid] = (t, self._sent.pop(uid, (None, None)))

    def exec_begin(self, start: float, pe: int, env, prev_end: float):
        if env.kind == _SEED_KIND:
            rec = [env.chare_cls, start,
                   self._delivered.pop(env.uid, None), None, None]
        else:
            rec = _OTHER
        self.ctx = rec
        return rec

    def exec_end(self, end: float, pe: int, env, duration: float,
                 begin, exited: bool) -> None:
        if begin is not _OTHER:
            begin[_END] = end
            begin[_EXEC_DUR] = duration
        self.ctx = None

    def deliver_parent(self, uid: int):
        """The delivery a forwarding leg continues; the leg ends this uid
        (its envelope is re-sent under a fresh one, never executed)."""
        return self._delivered.pop(uid, None)

    # ---------------------------------------------------------------- results
    def requests(self) -> List[Dict[str, Any]]:
        """One record per finished request: :func:`request_latencies` of
        the four-kind log this run would have left, float for float.

        Each final's stages are visited last stage first and summed in
        that order — the walk's order — because float addition is not
        associative and the two must agree to the last bit.
        """
        out: List[Dict[str, Any]] = []
        for entry, sent_t, rec in self._finals:
            if not _is_request(rec):
                continue  # a completion sent by a non-request execution
            stages = 0
            queue_wait = 0.0
            service = 0.0
            inject_t: Optional[float] = None
            complete_t = rec[_END] if rec[_END] is not None else sent_t
            cur = rec
            while True:
                stages += 1
                if cur[_EXEC_DUR] is not None:
                    service += cur[_EXEC_DUR]
                delivery = cur[_DELIVERY]
                if delivery is None:
                    inject_t = None  # a stage nothing delivered: no record
                    break
                deliver_t, (origin, send_t) = delivery
                queue_wait += cur[_START] - deliver_t
                if send_t is not None:
                    inject_t = send_t
                if not _is_request(origin):
                    break
                cur = origin  # previous pipeline stage
            if inject_t is None:
                continue
            out.append({
                "kind": "shed" if entry == SHED_ENTRY else "done",
                "inject_t": inject_t,
                "complete_t": complete_t,
                "latency": complete_t - inject_t,
                "queue_wait": queue_wait,
                "service": service,
                "stages": stages,
            })
        out.sort(key=lambda r: (r["inject_t"], r["complete_t"]))
        return out


def _is_request(rec: Any) -> bool:
    """``rec`` is the execution record of a request stage (``ctx`` may also
    be ``None`` or a delivery when a send happens outside an execution)."""
    return (type(rec) is list and rec[_CLS] is not None
            and rec[_CLS].__name__ == REQUEST_NAME)


# ===================================================================== summary
def latency_summary(
    records: Union[EventLog, "LatencyFold", Iterable[Any]],
) -> Dict[str, Any]:
    """Scalar latency digest of a serving run's event log or fold.

    ``records`` is anything :func:`request_latencies` walks, or the
    :class:`LatencyFold` a run recorded into.  Counts plus nearest-rank
    p50/p95/p99 over *served* requests, and the queue-wait / service /
    transit decomposition of the mean.  Percentile fields are ``None``
    when no request completed (an empty summary must stay visibly empty,
    not read as a zero-latency system).
    """
    if isinstance(records, LatencyFold):
        reqs = records.requests()
    else:
        reqs = request_latencies(records)
    served = [r for r in reqs if r["kind"] == "done"]
    shed = [r for r in reqs if r["kind"] == "shed"]
    summary: Dict[str, Any] = {
        "requests": len(reqs),
        "completed": len(served),
        "shed": len(shed),
    }
    latencies = sorted(r["latency"] for r in served)
    if latencies:
        n = len(latencies)
        for q in _QUANTILES:
            summary[f"p{q:g}"] = latencies[max(1, math.ceil(q / 100.0 * n)) - 1]
        summary["mean"] = sum(latencies) / n
        summary["min"] = latencies[0]
        summary["max"] = latencies[-1]
        summary["mean_queue_wait"] = sum(r["queue_wait"] for r in served) / n
        summary["mean_service"] = sum(r["service"] for r in served) / n
        summary["mean_transit"] = (
            summary["mean"] - summary["mean_queue_wait"] - summary["mean_service"]
        )
    else:
        for q in _QUANTILES:
            summary[f"p{q:g}"] = None
        summary["mean"] = summary["min"] = summary["max"] = None
        summary["mean_queue_wait"] = None
        summary["mean_service"] = None
        summary["mean_transit"] = None
    return summary
