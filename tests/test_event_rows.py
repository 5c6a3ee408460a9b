"""The event store is one list of plain tuples; every view of it is unchanged.

Pins the row representation of :class:`repro.trace.events.EventLog`:

* a fixture captured **at the parent commit** (object-per-event store):
  the sha256 of the exported records and ``repr(answer)`` of a handful of
  traced serving/queens runs must not move;
* the one latency walk gives float-for-float the same digest whether it
  reads the log's rows in place, the exported records, or records that
  went through JSON;
* bounding (``max_events``), kind filtering and parent telescoping hold
  on the rows themselves;
* :class:`~repro.trace.events.Event` is a faithful view of a row;
* a serving run whose bounded log overflowed refuses to report a digest;
* :class:`~repro.metrics.latency.LatencyFold`, the recorder a sweep's
  serving runs use in place of the log, gives the walk's per-request
  records float for float, and ``run_descriptor`` the pinned answers.

``python tests/test_event_rows.py`` regenerates the fixture; run it only
against a commit whose records are known-good (it was written by the
parent of the row store).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import replace

import pytest

from repro.apps.serving import SERVING_TRACE_KINDS, run_serving
from repro.bench.harness import describe, execute_descriptor, run_descriptor
from repro.bench.parallel import SweepExecutor
from repro.faults import FaultConfig
from repro.machine.presets import make_machine
from repro.metrics.latency import (LatencyFold, latency_summary,
                                   request_latencies)
from repro.trace import Event, EventLog
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.workloads.arrivals import Poisson, ServiceSpec
from tests.conftest import pick, run_echo

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "event_rows_parent.json")


# ------------------------------------------------- parent-commit fixture
def _parent_cases():
    drop = FaultConfig(drop_prob=0.05)
    return {
        "queens-ipsc2": describe("queens", "ipsc2", 4, n=6, grainsize=2,
                                 seed=1, trace="all"),
        "queens-acwn-drop": describe("queens", "ncube2", 8, n=7,
                                     balancer="acwn", faults=drop,
                                     trace="all"),
        "serving-acwn": describe("serving", "ncube2", 8, balancer="acwn",
                                 trace="all"),
        "serving-central-drop": describe("serving", "ncube2", 8,
                                         balancer="central", faults=drop,
                                         seed=3, trace="all"),
        "serving-token-hops-shed": describe(
            "serving", "ncube2", 8, balancer="token", hops=3, shed_above=2,
            arrivals=Poisson(rate=6000.0, count=120), seed=2,
            trace=SERVING_TRACE_KINDS),
    }


def _untraced(desc):
    """``desc`` without the ``trace_events`` kinds it states."""
    return replace(desc, params=tuple(kv for kv in desc.params
                                      if kv[0] != "trace_events"))


def _capture(run=execute_descriptor):
    out = {}
    for name, desc in _parent_cases().items():
        row = run(desc)
        blob = json.dumps(row.trace["events"], sort_keys=True)
        out[name] = {
            "events": len(row.trace["events"]),
            "sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "answer": repr(row.answer),
        }
    return out


def test_records_and_answers_equal_parent_commit():
    with open(FIXTURE) as fh:
        expected = json.load(fh)
    assert _capture() == expected
    # The sweep's path: the same rows when a trace is exported, and the
    # same answers from the fold when none is.
    assert _capture(run_descriptor) == expected
    for name, desc in _parent_cases().items():
        if desc.app == "serving":
            untraced = _untraced(desc)
            assert repr(run_descriptor(untraced).answer) == expected[name]["answer"]


@pytest.mark.parametrize("name", ["serving-acwn", "serving-central-drop",
                                  "serving-token-hops-shed"])
def test_latency_fold_with_telemetry_keeps_the_pinned_answer(name):
    """S6's validation arms: a fold and telemetry share the observer slot
    through the pair; the answer (less the online digest) and the run are
    those of the fold alone."""
    with open(FIXTURE) as fh:
        expected = json.load(fh)[name]["answer"]
    desc = _untraced(_parent_cases()[name])
    folded = run_descriptor(desc)
    assert repr(folded.answer) == expected
    observed = run_descriptor(replace(
        desc, params=tuple(sorted(desc.params + (("metrics", 1e-4),)))))
    answer = dict(observed.answer)
    assert answer.pop("online")["count"] == answer["completed"]
    assert repr(answer) == expected
    assert (observed.vtime, observed.events) == (folded.vtime, folded.events)
    assert observed.telemetry["snapshots"]


# ------------------------------------------ one walk, three input shapes
BALANCERS = ("random", "central", "token", "acwn", "gradient")
KIND_FILTERS = (
    SERVING_TRACE_KINDS,
    "all",
    ("deliver", "exec_begin", "exec_end", "send", "lb", "fault"),
    ("exec_begin", "exec_end", "send"),  # no deliver: every chain truncated
)


def _draw(i):
    rng = RngStream(20260928, "event-rows", i)
    faults = pick(rng, (None, None, FaultConfig(drop_prob=0.05),
                         FaultConfig(stall_prob=0.1, stall_time=2e-3)))
    kwargs = dict(
        arrivals=Poisson(rate=pick(rng, (1500.0, 4000.0, 9000.0)),
                         count=rng.randint(20, 80)),
        service=ServiceSpec("exp", 300.0),
        hops=pick(rng, (1, 3)),
        shed_above=pick(rng, (None, 1, 4)),
        balancer=BALANCERS[i % len(BALANCERS)],
        seed=rng.randint(0, 999),
        trace_events=pick(rng, KIND_FILTERS),
    )
    if faults is not None:
        kwargs["faults"] = faults
    return kwargs


@pytest.mark.parametrize("i", range(40))
def test_latency_walk_rows_records_json_agree(i):
    kwargs = _draw(i)
    summary, result = run_serving(make_machine("ncube2", 8), **kwargs)
    log = result.kernel.events
    records = log.as_records()
    from_rows = latency_summary(log)
    assert from_rows == latency_summary(records)
    assert from_rows == latency_summary(json.loads(json.dumps(records)))
    assert from_rows == latency_summary(list(map(Event._make, log.rows)))
    assert request_latencies(log) == request_latencies(records)
    if "deliver" in log.kinds:
        assert from_rows["completed"] == summary["completed"]
        assert from_rows["shed"] == summary["shed"]
        assert summary["p99"] == from_rows["p99"]
    else:
        assert from_rows["requests"] == 0 and summary["p99"] is None


def test_sparse_hand_built_dicts_are_legal_input():
    # Only the keys the walk reads; every absent one reads as None.
    log = [
        {"eid": 1, "kind": "exec_begin", "t": 0.0, "name": "tick"},
        {"eid": 2, "kind": "send", "t": 0.001, "parent": 1},
        {"eid": 3, "kind": "deliver", "t": 0.002, "parent": 2},
        {"eid": 4, "kind": "exec_begin", "t": 0.003, "parent": 3,
         "name": "Request"},
        {"eid": 5, "kind": "exec_end", "t": 0.004, "parent": 4, "dur": 0.001},
        {"eid": 6, "kind": "send", "t": 0.004, "parent": 4, "name": "done"},
    ]
    full = [Event(*(d.get(f) for f in Event._fields)) for d in log]
    (req,) = request_latencies(log)
    assert (req["inject_t"], req["complete_t"], req["stages"]) == (0.001, 0.004, 1)
    assert request_latencies(full) == [req]
    assert request_latencies(full[:2] + log[2:]) == [req]  # mixed shapes


# ------------------------------------------------ the fold equals the walk
FOLD_FAULTS = (
    None, None,
    FaultConfig(drop_prob=0.05),
    FaultConfig(dup_prob=0.1),
    FaultConfig(stall_prob=0.1, stall_time=2e-3),
    FaultConfig(jitter=1e-4),
    FaultConfig(drop_prob=0.1, dup_prob=0.1, delay_prob=0.1),
)


#: Machines the fold is drawn on: ``(preset, PE counts, sparse)``.  The
#: cluster shape is S5/S6's: sparse startup, so a central manager
#: forwards seeds across ranks materialised on first touch.
FOLD_MACHINES = (
    ("ncube2", (1, 4, 8, 16), False),
    ("ncube2", (1, 4, 8, 16), False),
    ("hetero", (4, 8), False),
    ("cluster", (64, 1000), True),
)


def _fold_draw(i):
    """``_draw``'s axes without the kind filter (the fold hears seeds and
    finals, not kinds), plus hops = 2, dup / jitter faults and the
    machine: P on ``ncube2``, heterogeneous PE speeds, and sparse cluster
    farms balanced centrally."""
    rng = RngStream(20261003, "latency-fold", i)
    name, sizes, sparse = pick(rng, FOLD_MACHINES)
    kwargs = dict(
        arrivals=Poisson(rate=pick(rng, (1500.0, 4000.0, 9000.0)),
                         count=rng.randint(15, 50)),
        service=ServiceSpec("exp", 300.0),
        hops=pick(rng, (1, 2, 3)),
        shed_above=pick(rng, (None, 1, 4)),
        balancer="central" if sparse else BALANCERS[i % len(BALANCERS)],
        seed=rng.randint(0, 999),
    )
    faults = pick(rng, FOLD_FAULTS)
    if faults is not None:
        kwargs["faults"] = faults
    return (name, pick(rng, sizes), sparse), kwargs


@pytest.mark.parametrize("i", range(120))
def test_fold_equals_walk_float_for_float(i):
    machine, kwargs = _fold_draw(i)
    walked, logged = run_serving(make_machine(*machine), **kwargs)
    fold = LatencyFold()
    folded, result = run_serving(make_machine(*machine), trace_events=fold,
                                 **kwargs)
    assert result.kernel.events is fold
    # == on dicts of floats: every float equal, no tolerance.
    assert request_latencies(fold) == request_latencies(logged.kernel.events)
    assert latency_summary(fold) == latency_summary(logged.kernel.events)
    assert folded == walked
    assert result.time.hex() == logged.time.hex()
    assert result.events == logged.events


def test_fold_draws_cover_every_machine_shape():
    shapes = {_fold_draw(i)[0] for i in range(120)}
    assert {(name, sparse) for name, _, sparse in shapes} == {
        (name, sparse) for name, _, sparse in FOLD_MACHINES}
    assert ("cluster", 1000, True) in shapes


def test_fold_tells_stages_by_class_and_finals_by_entry():
    """The hand-built chain of the sparse-dict test above, as a kernel
    drives a summary recorder: the note it keeps on a followed seed, and
    one call for the final; then the kernel's side, which notes only the
    seeds of a followed class."""
    from repro import Chare, Kernel, entry
    from repro.core.messages import SeedNote

    class Env:
        def __init__(self, entry):
            self.entry = entry

    fold = LatencyFold()
    assert (fold.hears, fold.follows, fold.finals) == (
        "seeds", {"Request"}, {"done", "shed"})
    done = Env("done")
    note = SeedNote()                       # a seed a tick sent at 0.001
    note.origin, note.sent, note.arrived, note.dur = None, 0.001, None, None
    note.arrived = 0.002
    note.start = 0.003
    fold.ctx = note
    # A final sent while its stage runs keeps its place until read.
    fold.msg_send(0.0035, done)
    note.dur = 0.001
    fold.msg_send(0.004, done)
    fold.ctx = None
    first, second = request_latencies(fold)
    assert first == second
    assert (first["inject_t"], first["complete_t"], first["stages"]) == (
        0.001, 0.003 + 0.001, 1)
    assert (first["queue_wait"], first["service"]) == (0.003 - 0.002, 0.001)
    fold.msg_send(0.006, done)              # sent outside a request stage
    assert len(fold.requests) == 2

    class Request(Chare):
        def __init__(self, main):
            self.send(main, "done")

    class Other(Chare):
        def __init__(self):
            pass

    class Main(Chare):
        def __init__(self):
            self.create(Other)
            self.create(Request, self.thishandle)

        @entry
        def done(self):
            self.exit(None)

    kernel = Kernel(make_machine("ncube2", 4), trace_events=LatencyFold())
    deliver, notes = kernel._deliver, {}

    def spy(env, departure):
        deliver(env, departure)
        if env.kind == 1:
            notes[env.chare_cls.__name__] = env.note

    kernel._deliver = spy
    kernel.run(Main)
    assert notes["Other"] is None and type(notes["Request"]) is SeedNote
    (req,) = request_latencies(kernel.events)
    assert req["stages"] == 1


class CountingFold(LatencyFold):
    """A fold that counts every hook call the kernel makes on it."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def msg_send(self, t, env):
        self._count("msg_send")
        super().msg_send(t, env)

    def msg_deliver(self, t, env):
        self._count("msg_deliver")

    def exec_begin(self, *args):
        self._count("exec_begin")

    def exec_end(self, *args):
        self._count("exec_end")

    def record(self, *args, **kwargs):
        self._count("record")


@pytest.mark.parametrize("balancer", ["central", "acwn", "token"])
def test_summary_costs_one_call_per_final(balancer):
    """Per final one msg_send, and nothing else: no send of a seed or of
    any other message, no delivery, execution or decision call and no
    uid, though forwarding, steals and placements were recorded by a log
    of the same run."""
    kwargs = dict(arrivals=Poisson(rate=6000.0, count=120), hops=2,
                  balancer=balancer, seed=4)
    fold = CountingFold()
    summary, result = run_serving(make_machine("ncube2", 8),
                                  trace_events=fold, **kwargs)
    assert fold.calls == {"msg_send": summary["offered"]}
    assert result.kernel._next_uid == 1
    _, logged = run_serving(make_machine("ncube2", 8), trace_events="all",
                            **kwargs)
    decisions = [row for row in logged.kernel.events.rows if row[1] == "lb"]
    assert decisions and request_latencies(fold) == request_latencies(
        logged.kernel.events)


def test_recorders_declare_what_they_hear():
    from repro.obs import Telemetry
    from repro.trace.events import Recorder, RecorderPair

    assert (EventLog.hears, LatencyFold.hears, Telemetry.hears,
            Recorder.hears) == ("all", "seeds", None, None)
    pair = RecorderPair(LatencyFold(), Telemetry())
    assert (pair.hears, pair.follows, pair.finals) == (
        "seeds", {"Request"}, {"done", "shed"})

    class Loud(Recorder):
        hears = "everything"

    with pytest.raises(ConfigurationError, match="hears"):
        run_serving(make_machine("ncube2", 4), trace_events=Loud())


# -------------------------------------------------- bounds and filtering
def test_bounded_log_telescopes_on_rows(ipsc8):
    result = run_echo(ipsc8, n=16, seed=1,
                      trace_events=EventLog(kinds=True, max_events=50))
    log = result.kernel.events
    assert len(log.rows) == 50
    assert log.dropped > 0
    for i, row in enumerate(log.rows):
        assert type(row) is tuple and len(row) == 9
        assert row[0] == i
        assert row[5] is None or row[5] < 50


def test_kind_filtering_on_rows(ipsc8):
    result = run_echo(ipsc8, n=8, seed=1, trace_events="exec_begin,exec_end")
    log = result.kernel.events
    assert {row[1] for row in log.rows} == {"exec_begin", "exec_end"}
    eids = {row[0] for row in log.rows}
    parented = [row for row in log.rows
                if row[1] == "exec_begin" and row[5] is not None]
    assert parented, "no causal links survived filtering"
    assert all(row[5] in eids for row in parented)


# ------------------------------------------------------ Event as a view
def test_event_round_trip(ipsc8):
    log = run_echo(ipsc8, n=8, seed=1, trace_events=True).kernel.events
    records = log.as_records()
    assert list(records[0]) == list(Event._fields)
    events = list(map(Event._make, log.rows))
    assert len(events) == len(log.rows) == len(records)
    for i, (row, record) in enumerate(zip(log.rows, records)):
        assert Event(*row)._asdict() == record
        assert events[i].eid == i
        assert events[i] == row
    first = events[0]
    assert (first.kind, first.t, first.pe) == (log.rows[0][1],
                                               log.rows[0][2], log.rows[0][3])


def test_log_bearing_rows_pickle_identically_across_jobs():
    descs = [describe("serving", "ncube2", 8, balancer="acwn", seed=s,
                      trace="all") for s in (1, 2)]
    with SweepExecutor(jobs=1) as ex1:
        serial = ex1.run_many(descs)
    with SweepExecutor(jobs=2) as ex2:
        pooled = ex2.run_many(descs)
    for desc, a, b in zip(descs, serial, pooled):
        assert a.answer == b.answer
        assert json.dumps(a.trace) == json.dumps(b.trace)
        # Executor rows carry no live run; take the log from a direct one.
        log = execute_descriptor(desc).result.kernel.events
        clone = pickle.loads(pickle.dumps(log))
        assert clone.rows == log.rows
        assert clone.as_records() == a.trace["events"] == b.trace["events"]


# ------------------------------------------------------- overflowed logs
def test_overflowed_log_refuses_a_biased_digest():
    with pytest.raises(ConfigurationError) as err:
        run_serving(
            make_machine("ncube2", 8), Poisson(rate=2000.0, count=200),
            balancer="central",
            trace_events=EventLog(kinds=SERVING_TRACE_KINDS, max_events=500),
        )
    message = str(err.value)
    assert "max_events" in message and "2210" in message
    assert "trace_events=None" in message


def test_bounded_log_that_fits_still_digests():
    machine = make_machine("ncube2", 8)
    arrivals = Poisson(rate=2000.0, count=200)
    bounded, _ = run_serving(
        machine, arrivals, balancer="central",
        trace_events=EventLog(kinds=SERVING_TRACE_KINDS, max_events=5000))
    default, _ = run_serving(make_machine("ncube2", 8), arrivals,
                             balancer="central")
    assert bounded == default
    assert bounded["completed"] == 200 and bounded["p99"] is not None


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(_capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
