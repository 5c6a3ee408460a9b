"""Structured event log — the Projections-class tracing substrate.

When a kernel is created with ``trace_events=...`` it records one
:class:`Event` per interesting runtime occurrence:

======================  =====================================================
kind                    meaning (``pe`` column)
======================  =====================================================
``send``                an envelope entered the network (source PE)
``deliver``             an envelope reached its destination pool (dest PE)
``exec_begin``          an entry-method execution started (executing PE)
``exec_end``            that execution completed; ``dur`` is its length
``idle_gap``            the PE was idle between two executions (``dur`` gap)
``lb``                  a load-balancer decision (place/forward/steal/donate)
``qd``                  a quiescence-detection wave started / detection fired
``fault``               a fault-layer perturbation (drop/delay/dup/retry/...)
======================  =====================================================

Every event carries the virtual time ``t``, the PE it happened on, the
envelope ``uid`` it concerns (when any) and a ``parent`` event id, so the
message dependency chains of a run are reconstructible: an execution's
parent is the delivery that queued its message, a delivery's parent is
the send that launched it, and a send's parent is the execution (or
runtime decision) that emitted it.  The critical-path analyzer
(:mod:`repro.trace.critical_path`) and the Perfetto exporter
(:mod:`repro.trace.perfetto`) are both pure functions of this log.

The store is one list of **plain tuples in schema order** —
``(eid, kind, t, pe, uid, parent, name, dur, info)``, :attr:`EventLog.rows`
— because a traced serving run records ~20 k events and recording must
cost an append, not an object.  :class:`Event` names those nine positions;
it is a view for readers, never built while recording.  Consumers take
their input through :func:`event_rows` (the latency walk, which indexes
rows in place) or :func:`event_records` (the export-side dict consumers).

The log is **bounded** (``max_events``): once full, further events are
counted in ``dropped`` instead of appended, and their *parent* id is
propagated in their place so surviving chains telescope through the
dropped tail instead of breaking.  Kind filtering degrades the same way:
a filtered-out kind still forwards its parent through the causal maps.

Recording is inert-when-off: the kernel has one observer slot and pays
exactly one ``is None`` check per hook site when nothing fills it, which
is what keeps the unobserved golden traces bit-identical.  The slot holds
one :class:`Recorder`, or a :class:`RecorderPair` of a causal recorder
and telemetry.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Union)

from repro.util.errors import ConfigurationError, need_int

__all__ = ["EVENT_KINDS", "Event", "EventLog", "Recorder", "RecorderPair",
           "normalize_kinds", "event_rows", "event_records"]

#: Every recordable event kind, in schema order.
EVENT_KINDS = (
    "send",
    "deliver",
    "exec_begin",
    "exec_end",
    "idle_gap",
    "lb",
    "qd",
    "fault",
)

#: Default log bound: ~2M events covers every paper-scale run while keeping
#: a runaway trace under a few hundred MB of host memory.
DEFAULT_MAX_EVENTS = 2_000_000

# Envelope kind tag for seeds (avoids importing repro.core.messages here).
_SEED_KIND = 1
_SVC_KIND = 3


class Event(NamedTuple):
    """One recorded runtime occurrence: the names of a row's positions.

    ``eid`` equals the row's log index.  ``Event(*row)`` (or
    ``log.events``) gives attribute access to a stored row.
    """

    eid: int
    kind: str
    t: float
    pe: int
    uid: Optional[int]
    parent: Optional[int]
    name: Optional[str]
    dur: Optional[float]
    info: Optional[Dict[str, Any]]

    def as_dict(self) -> Dict[str, Any]:
        return self._asdict()


def normalize_kinds(kinds: Union[bool, str, Iterable[str], None]) -> tuple:
    """Canonicalise a kind selection to a sorted tuple of valid kinds."""
    if kinds is None or kinds is True or kinds == "all":
        return tuple(EVENT_KINDS)
    if isinstance(kinds, str):
        kinds = [k.strip() for k in kinds.split(",") if k.strip()]
    selected = []
    for kind in kinds:
        if kind == "all":
            return tuple(EVENT_KINDS)
        if kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown trace event kind {kind!r}; "
                f"options: {', '.join(EVENT_KINDS)} (or 'all')"
            )
        if kind not in selected:
            selected.append(kind)
    return tuple(sorted(selected))


class Recorder:
    """The hook surface the kernel calls on its observer slot, as no-ops;
    a recorder overrides what it keeps (:class:`EventLog`: everything)."""

    ctx: Any = None

    def msg_send(self, t: float, env) -> None:
        pass

    def msg_deliver(self, t: float, env) -> None:
        pass

    def exec_begin(self, start: float, pe: int, env, prev_end: float):
        return None

    def exec_end(self, end: float, pe: int, env, duration: float,
                 begin, exited: bool) -> None:
        pass

    def record(self, kind, t, pe, name=None, uid=None, parent=None,
               dur=None, info=None):
        return parent

    def send_parent(self, uid: int) -> Optional[int]:
        return None

    def deliver_parent(self, uid: int) -> Optional[int]:
        return None


class EventLog(Recorder):
    """Bounded, kind-filtered recorder of one kernel run's events.

    The kernel (and the services riding on it) call the ``msg_send`` /
    ``msg_deliver`` / ``exec_begin`` / ``exec_end`` / ``record`` hooks;
    everything else — export, analysis, sampling — happens after the run
    on :attr:`rows` or :meth:`as_records`.

    ``ctx`` is the *causal cursor*: the event id that parents the next
    send.  The kernel sets it to the current execution's ``exec_begin``
    for the duration of that execution (including its outbox flush), and
    runtime decisions (seed forwarding, QD waves, buffered-send flushes)
    override it around their own deliveries.  Outside any of those
    windows it is ``None`` and sends root a fresh chain.
    """

    def __init__(
        self,
        kinds: Union[bool, str, Iterable[str], None] = True,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if isinstance(max_events, bool):  # need_int counts True as 1
            raise ConfigurationError(f"max_events must be an integer, "
                                     f"got {max_events!r}")
        self.max_events = need_int("max_events", max_events, 1)
        self.kinds = normalize_kinds(kinds)
        #: One plain tuple per event, in :class:`Event` field order.
        self.rows: List[tuple] = []
        self.dropped = 0
        self.ctx: Optional[int] = None
        # uid -> eid of the (latest) send / deliver concerning it.  These
        # never pop: fault retransmissions and late acks look up the
        # original send arbitrarily far after delivery.
        self._send_eid: Dict[int, Optional[int]] = {}
        self._deliver_eid: Dict[int, Optional[int]] = {}
        kindset = set(self.kinds)
        self._rec_send = "send" in kindset
        self._rec_deliver = "deliver" in kindset
        self._rec_begin = "exec_begin" in kindset
        self._rec_end = "exec_end" in kindset
        self._rec_idle = "idle_gap" in kindset
        self._rec_lb = "lb" in kindset
        self._rec_qd = "qd" in kindset
        self._rec_fault = "fault" in kindset

    # -------------------------------------------------------------- recording
    def _append(self, kind, t, pe, uid, parent, name, dur, info):
        """Append one event; when full, count it and pass the parent on."""
        rows = self.rows
        eid = len(rows)
        if eid >= self.max_events:
            self.dropped += 1
            return parent
        rows.append((eid, kind, t, pe, uid, parent, name, dur, info))
        return eid

    def msg_send(self, t: float, env) -> None:
        """An envelope entered the network (kernel ``_deliver``)."""
        uid = env.uid
        if self._rec_send:
            self._send_eid[uid] = self._append(
                "send", t, env.src_pe, uid, self.ctx, env.entry, None,
                {"dst": env.dst_pe, "nbytes": env.nbytes,
                 "mkind": env.kind_name()},
            )
        else:
            # Filtered: forward the causal cursor so downstream events
            # still chain through to the sending execution.
            self._send_eid[uid] = self.ctx

    def msg_deliver(self, t: float, env) -> None:
        """An envelope reached its destination pool (kernel ``_arrive``)."""
        uid = env.uid
        parent = self._send_eid.get(uid)
        if self._rec_deliver:
            self._deliver_eid[uid] = self._append(
                "deliver", t, env.dst_pe, uid, parent, env.entry, None, None
            )
        else:
            self._deliver_eid[uid] = parent

    def exec_begin(self, start: float, pe: int, env, prev_end: float):
        """An execution started; returns the token ``exec_end`` needs."""
        if self._rec_idle and start > prev_end:
            self._append("idle_gap", prev_end, pe, None, None, None,
                         start - prev_end, None)
        uid = env.uid
        parent = self._deliver_eid.get(uid)
        if env.kind == _SEED_KIND and env.chare_cls is not None:
            name = env.chare_cls.__name__
        elif env.kind == _SVC_KIND:
            name = f"{env.service}:{env.entry}"
        else:
            name = env.entry
        if self._rec_begin:
            eid = self._append("exec_begin", start, pe, uid, parent, name,
                               None, None)
        else:
            eid = parent
        self.ctx = eid
        return eid

    def exec_end(self, end: float, pe: int, env, duration: float,
                 begin_eid, exited: bool) -> None:
        """The execution identified by ``begin_eid`` completed."""
        if self._rec_end:
            self._append("exec_end", end, pe, env.uid, begin_eid, env.entry,
                         duration, {"exit": True} if exited else None)
        self.ctx = None

    def record(
        self,
        kind: str,
        t: float,
        pe: int,
        name: Optional[str] = None,
        uid: Optional[int] = None,
        parent: Optional[int] = None,
        dur: Optional[float] = None,
        info: Optional[dict] = None,
    ):
        """Record a control-plane event (``lb`` / ``qd`` / ``fault``).

        Returns the new event id (or the forwarded parent when the kind
        is filtered out or the log is full).
        """
        if kind == "lb":
            enabled = self._rec_lb
        elif kind == "qd":
            enabled = self._rec_qd
        elif kind == "fault":
            enabled = self._rec_fault
        else:
            raise ConfigurationError(
                f"record() is for control-plane kinds, not {kind!r}"
            )
        if not enabled:
            return parent
        return self._append(kind, t, pe, uid, parent, name, dur, info)

    # ------------------------------------------------------------- chain maps
    def send_parent(self, uid: int) -> Optional[int]:
        """Event id of the send concerning ``uid`` (fault layer hook)."""
        return self._send_eid.get(uid)

    def deliver_parent(self, uid: int) -> Optional[int]:
        """Event id of the delivery concerning ``uid`` (forwarding hook)."""
        return self._deliver_eid.get(uid)

    # -------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.rows)

    @property
    def events(self) -> List[Event]:
        """The rows as :class:`Event` views (built on each access)."""
        return list(map(Event._make, self.rows))

    def counts(self) -> Dict[str, int]:
        """Event counts by kind (every selected kind is present)."""
        out = {kind: 0 for kind in self.kinds}
        for row in self.rows:
            out[row[1]] += 1
        return out

    def as_records(self) -> List[Dict[str, Any]]:
        """Plain-dict projection (picklable, JSON-ready), in event order."""
        # A literal per row: this is the export path of every traced sweep,
        # and dict(zip(fields, row)) costs 1.7x as much.
        return [
            {"eid": eid, "kind": kind, "t": t, "pe": pe, "uid": uid,
             "parent": parent, "name": name, "dur": dur, "info": info}
            for eid, kind, t, pe, uid, parent, name, dur, info in self.rows
        ]


class RecorderPair:
    """A causal recorder and telemetry sharing the kernel's observer slot:
    the execution hooks reach both; ``ctx``, ``record``, the chain maps
    and the per-message hooks are the recorder's alone, so its rows do
    not depend on telemetry being there."""

    __slots__ = ("recorder", "telemetry", "record", "send_parent",
                 "deliver_parent", "msg_send", "msg_deliver")

    def __init__(self, recorder, telemetry) -> None:
        self.recorder = recorder
        self.telemetry = telemetry
        self.record = recorder.record
        self.send_parent = recorder.send_parent
        self.deliver_parent = recorder.deliver_parent
        # Telemetry's per-message hooks are no-ops (it scrapes the PEState
        # counters instead): not worth a call per message.
        self.msg_send = recorder.msg_send
        self.msg_deliver = recorder.msg_deliver

    @property
    def ctx(self):
        return self.recorder.ctx

    @ctx.setter
    def ctx(self, value) -> None:
        self.recorder.ctx = value

    def exec_begin(self, start: float, pe: int, env, prev_end: float):
        self.telemetry.exec_begin(start, pe, env, prev_end)
        return self.recorder.exec_begin(start, pe, env, prev_end)

    def exec_end(self, end, pe, env, duration, begin, exited) -> None:
        self.recorder.exec_end(end, pe, env, duration, begin, exited)
        self.telemetry.exec_end(end, pe, env, duration, None, exited)


# ------------------------------------------------------------ normalisers
_row_of = itemgetter(*Event._fields)


def event_rows(source: Union[EventLog, Iterable[Any]]) -> Sequence[tuple]:
    """``source`` as tuples in :class:`Event` field order.

    An :class:`EventLog` answers with its own rows (no copy).  Any other
    iterable may mix record dicts — JSON-loaded or hand-built; an absent
    key reads as ``None`` — with :class:`Event` views or bare rows.
    """
    if isinstance(source, EventLog):
        return source.rows
    rows = []
    for item in source:
        if isinstance(item, tuple):
            rows.append(item)
        else:
            try:
                rows.append(_row_of(item))
            except KeyError:
                rows.append(tuple(map(item.get, Event._fields)))
    return rows


def event_records(source: Iterable[Any]) -> List[Dict[str, Any]]:
    """An iterable of record dicts, :class:`Event` views or bare rows as
    record dicts; dicts pass through untouched."""
    fields = Event._fields
    return [item if isinstance(item, dict) else dict(zip(fields, item))
            for item in source]
