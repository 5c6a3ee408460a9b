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
cost an append, not an object.  :class:`Event` names those nine positions
(:data:`EID` … :data:`INFO`); it is a view, never built while recording.
Every reader takes its input through one :class:`EventIndex`.

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
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Union)

from repro.util.errors import ConfigurationError, need_int

__all__ = ["EVENT_KINDS", "Event", "EventIndex", "EventLog", "Recorder",
           "RecorderPair", "make_recorder", "normalize_kinds"]

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

#: The kinds :meth:`EventLog.record` takes: runtime decisions.
_CONTROL_KINDS = frozenset(("lb", "qd", "fault"))

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


#: The position of each :class:`Event` field in a row.
EID, KIND, T, PE, UID, PARENT, NAME, DUR, INFO = range(len(Event._fields))


def normalize_kinds(kinds: Union[bool, str, Iterable[str], None]) -> tuple:
    """Canonicalise a kind selection to a sorted tuple of valid kinds.

    A selection of no kind is refused: it would build a log that records
    nothing, where the caller most likely meant no tracing (``None``).
    """
    if kinds is None or kinds is True or kinds == "all":
        return tuple(EVENT_KINDS)
    if isinstance(kinds, str):
        kinds = [k.strip() for k in kinds.split(",") if k.strip()]
    elif not isinstance(kinds, Iterable):
        raise ConfigurationError(
            f"trace event kinds must be True, 'all', a comma-joined string "
            f"or an iterable of kind names, not {kinds!r}")
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
    if not selected:
        raise ConfigurationError(
            "no trace event kind selected; leave tracing off with None")
    return tuple(sorted(selected))


class Recorder:
    """The base of the recorders the kernel's observer slot holds.

    What the kernel reports to a recorder is declared by :attr:`hears`,
    which it reads once, when it is built, so what a recorder would throw
    away costs no call and no allocation:

    * ``None`` — every execution, as ``exec_begin`` / ``exec_end`` (this
      base's no-ops; telemetry);
    * ``"all"`` — a full trace (:class:`EventLog`): every execution; every
      message, stamped with a uid, at its send (``msg_send``) and its
      delivery (``msg_deliver``); every runtime decision (seed placement
      and forwarding, balancer steals, QD waves, faults) as a ``record``
      call; and the chain maps ``send_parent`` / ``deliver_parent``;
    * ``"seeds"`` — a summary that follows seeds
      (:class:`~repro.metrics.latency.LatencyFold`), with one call per
      final.  For each seed of a chare class named in :attr:`follows`, the
      kernel keeps a :class:`~repro.core.messages.SeedNote` on the
      envelope (``Envelope.note``), from the send that launches it from
      an execution across its balancer forwarding legs, and fills it in:
      the cursor ``ctx`` and the time it was sent, when each leg arrives,
      when it starts and how long it runs.  While the seed executes its
      note is the recorder's ``ctx``, and ``None`` otherwise.
      ``msg_send`` reports the sends of application messages whose entry
      is in :attr:`finals`.  Nothing is uid-stamped for a summary, and the
      kernel makes no execution call for it (beside telemetry, the pair's
      reach these no-op hooks).

    ``ctx`` is the recorder's causal cursor, which the kernel saves and
    restores around a buffered send's flush.
    """

    hears: Optional[str] = None
    #: Under ``hears = "seeds"``: the chare classes, by name, whose seeds
    #: the kernel follows, and the entries whose sends reach ``msg_send``.
    follows: frozenset = frozenset()
    finals: frozenset = frozenset()
    ctx: Any = None

    def exec_begin(self, start: float, pe: int, env, prev_end: float):
        return None

    def exec_end(self, end: float, pe: int, env, duration: float,
                 begin, exited: bool) -> None:
        pass


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

    hears = "all"

    def __init__(
        self,
        kinds: Union[bool, str, Iterable[str], None] = True,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
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
        self._rec_control = kindset & _CONTROL_KINDS

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
        if kind not in _CONTROL_KINDS:
            raise ConfigurationError(
                f"record() is for control-plane kinds, not {kind!r}"
            )
        if kind not in self._rec_control:
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
    """A recorder and telemetry sharing the kernel's observer slot: the
    execution hooks reach both; ``hears``, ``ctx``, ``record``, the chain
    maps and the message hooks are the recorder's alone, so what it
    records does not depend on telemetry being there."""

    __slots__ = ("recorder", "telemetry", "hears", "follows", "finals",
                 "record", "send_parent", "deliver_parent", "msg_send",
                 "msg_deliver")

    def __init__(self, recorder, telemetry) -> None:
        self.recorder = recorder
        self.telemetry = telemetry
        # Telemetry hears executions only (it scrapes the PEState counters
        # for traffic), so the pair hears what the recorder hears, and has
        # the recorder's hooks for it (a summary has no record, say).
        self.hears = recorder.hears
        self.follows = recorder.follows
        self.finals = recorder.finals
        for name in ("record", "send_parent", "deliver_parent", "msg_send",
                     "msg_deliver"):
            setattr(self, name, getattr(recorder, name, None))

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


def make_recorder(trace_events, telemetry=None):
    """Parse ``Kernel(trace_events=, telemetry=)`` into ``(events,
    telemetry, slot, hears)``: ``trace_events`` is ``None``, ``True`` or
    event kinds (an :class:`EventLog` is built), a recorder or a
    ``Telemetry`` or a :class:`RecorderPair` of the two; telemetry comes
    from either keyword, never both.  ``slot`` is what the kernel's
    observer slot holds and ``hears`` its :attr:`Recorder.hears`
    (``"all"`` when undeclared).
    """
    if trace_events is None and telemetry is None:
        return None, None, None, None   # unobserved: no import of repro.obs
    from repro.obs.telemetry import Telemetry  # obs builds on this module

    if isinstance(trace_events, RecorderPair):
        if telemetry is not None:
            raise ConfigurationError(
                "telemetry is given both in a RecorderPair as trace_events "
                "and as telemetry; a kernel has one telemetry plane, so pass "
                "it once")
        trace_events, telemetry = trace_events.recorder, trace_events.telemetry
    if isinstance(trace_events, Telemetry):
        if telemetry is not None:
            raise ConfigurationError(
                "telemetry is given both as trace_events and as telemetry; "
                "a kernel has one telemetry plane, so pass it once")
        trace_events, telemetry = None, trace_events
    elif telemetry is not None and not isinstance(telemetry, Telemetry):
        raise ConfigurationError(
            f"telemetry must be a Telemetry, not {type(telemetry).__name__}")
    events = trace_events
    if not (events is None or isinstance(events, Recorder)
            or hasattr(events, "msg_send")):
        if not (events is True or isinstance(events, Iterable)):
            raise ConfigurationError(
                "trace_events must be a recorder, True, or event kinds, "
                f"not {type(events).__name__}")
        events = EventLog(kinds=events)
    if telemetry is None or events is None:
        slot = telemetry if events is None else events
    else:
        slot = RecorderPair(events, telemetry)
    hears = None if slot is None else getattr(slot, "hears", "all")
    if hears not in ("all", "seeds", None):
        raise ConfigurationError(
            f"a recorder hears 'all', 'seeds' or None, not {hears!r}")
    return events, telemetry, slot, hears


# ------------------------------------------------------------------ reading
_row_of = itemgetter(*Event._fields)


class EventIndex:
    """One pass over an event log's rows, and the maps its readers share.

    ``source`` is an :class:`EventLog` (its rows are read in place) or an
    iterable of record dicts, :class:`Event` views or bare rows.
    :attr:`end_of` maps an ``exec_begin`` eid to the first ``exec_end``
    after it that names it as parent; :attr:`first_begin` and
    :attr:`first_deliver` map an envelope uid to its first row of the kind.
    """

    __slots__ = ("rows", "by_eid", "end_of", "first_begin", "first_deliver")

    def __init__(self, source: Union[EventLog, Iterable[Any]]) -> None:
        if isinstance(source, EventLog):
            self.rows = source.rows
        else:
            items = list(source)
            try:
                self.rows = [i if isinstance(i, tuple) else _row_of(i)
                             for i in items]
            except KeyError:  # a hand-built record: absent keys read None
                self.rows = [i if isinstance(i, tuple)
                             else tuple(map(i.get, Event._fields))
                             for i in items]
        self.by_eid = by_eid = {}
        self.end_of = end_of = {}
        self.first_begin = first_begin = {}
        self.first_deliver = first_deliver = {}
        for row in self.rows:
            by_eid[row[EID]] = row
            kind = row[KIND]
            if kind == "exec_end":
                begin = by_eid.get(row[PARENT], row)
                if begin[KIND] == "exec_begin" and begin[EID] not in end_of:
                    end_of[begin[EID]] = row
            elif row[UID] is not None and kind in ("exec_begin", "deliver"):
                firsts = first_begin if kind == "exec_begin" else first_deliver
                firsts.setdefault(row[UID], row)

    @classmethod
    def of(cls, source: Any) -> "EventIndex":
        """``source`` itself when it is an index, else its index."""
        return source if isinstance(source, cls) else cls(source)

    def ancestors(self, row: tuple) -> Iterator[tuple]:
        """``row``, its parent, and so on up the chain.

        Stops at a root, at a parent missing from the log (dropped at the
        bound or filtered out) or where the chain meets itself (a cycle,
        which only a hand-built or corrupted log has).  In the last two
        cases the last row yielded still names a parent.
        """
        by_eid = self.by_eid
        seen = set()
        while True:
            yield row
            seen.add(row[EID])
            parent = row[PARENT]
            row = None if parent is None else by_eid.get(parent)
            if row is None or row[EID] in seen:
                return
