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
from repro.bench.harness import (describe, execute_descriptor, measure_many,
                                 run_descriptor)
from repro.bench.parallel import SweepExecutor, use_executor
from repro.faults import FaultConfig
from repro.machine.presets import make_machine
from repro.metrics.latency import (LatencyFold, latency_summary,
                                   request_latencies)
from repro.trace import Event, EventLog
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStream
from repro.workloads.arrivals import Poisson, ServiceSpec
from tests.conftest import run_echo

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
            untraced = replace(desc, trace=())
            assert repr(run_descriptor(untraced).answer) == expected[name]["answer"]


@pytest.mark.parametrize("name", ["serving-acwn", "serving-central-drop",
                                  "serving-token-hops-shed"])
def test_latency_fold_with_telemetry_keeps_the_pinned_answer(name):
    """S6's validation arms: a fold and telemetry share the observer slot
    through the pair; the answer (less the online digest) and the run are
    those of the fold alone."""
    with open(FIXTURE) as fh:
        expected = json.load(fh)[name]["answer"]
    desc = replace(_parent_cases()[name], trace=())
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
    faults = rng.choice((None, None, FaultConfig(drop_prob=0.05),
                         FaultConfig(stall_prob=0.1, stall_time=2e-3)))
    kwargs = dict(
        arrivals=Poisson(rate=rng.choice((1500.0, 4000.0, 9000.0)),
                         count=rng.randint(20, 80)),
        service=ServiceSpec("exp", 300.0),
        hops=rng.choice((1, 3)),
        shed_above=rng.choice((None, 1, 4)),
        balancer=BALANCERS[i % len(BALANCERS)],
        seed=rng.randint(0, 999),
        trace_events=rng.choice(KIND_FILTERS),
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
    assert from_rows == latency_summary(log.events)
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


def _fold_draw(i):
    """``_draw``'s axes without the kind filter (the fold is a log of the
    four serving kinds), plus hops = 2, dup / jitter faults and P."""
    rng = RngStream(20261003, "latency-fold", i)
    kwargs = dict(
        arrivals=Poisson(rate=rng.choice((1500.0, 4000.0, 9000.0)),
                         count=rng.randint(15, 50)),
        service=ServiceSpec("exp", 300.0),
        hops=rng.choice((1, 2, 3)),
        shed_above=rng.choice((None, 1, 4)),
        balancer=BALANCERS[i % len(BALANCERS)],
        seed=rng.randint(0, 999),
    )
    faults = rng.choice(FOLD_FAULTS)
    if faults is not None:
        kwargs["faults"] = faults
    return rng.choice((1, 4, 8, 16)), kwargs


@pytest.mark.parametrize("i", range(120))
def test_fold_equals_walk_float_for_float(i):
    num_pes, kwargs = _fold_draw(i)
    walked, logged = run_serving(make_machine("ncube2", num_pes), **kwargs)
    fold = LatencyFold()
    folded, result = run_serving(make_machine("ncube2", num_pes),
                                 trace_events=fold, **kwargs)
    assert result.kernel.events is fold
    # == on dicts of floats: every float equal, no tolerance.
    assert fold.requests() == request_latencies(logged.kernel.events)
    assert latency_summary(fold) == latency_summary(logged.kernel.events)
    assert folded == walked
    assert result.time.hex() == logged.time.hex()
    assert result.events == logged.events


def test_fold_tells_stages_by_class_and_finals_by_entry():
    """The hand-built chain of the sparse-dict test above, as hook calls."""
    class Env:
        def __init__(self, kind, uid, entry=None, chare_cls=None):
            self.kind, self.uid, self.entry = kind, uid, entry
            self.chare_cls = chare_cls

    Request = type("Request", (), {})
    fold = LatencyFold()
    tick, seed, done = Env(2, 1, "tick"), Env(1, 2, chare_cls=Request), \
        Env(2, 3, "done")
    begin = fold.exec_begin(0.0, 0, tick, 0.0)
    fold.msg_send(0.001, seed)
    fold.exec_end(0.001, 0, tick, 0.001, begin, False)
    fold.msg_deliver(0.002, seed)
    begin = fold.exec_begin(0.003, 1, seed, 0.0)
    fold.msg_send(0.004, done)
    fold.exec_end(0.004, 1, seed, 0.001, begin, False)
    (req,) = fold.requests()
    assert (req["inject_t"], req["complete_t"], req["stages"]) == (0.001, 0.004, 1)
    assert (req["queue_wait"], req["service"]) == (0.003 - 0.002, 0.001)
    assert not fold._sent and not fold._delivered and fold.ctx is None


# -------------------------------------------------- bounds and filtering
def test_bounded_log_telescopes_on_rows(ipsc8):
    result = run_echo(ipsc8, n=16, seed=1,
                      trace_events=EventLog(kinds=True, max_events=50))
    log = result.kernel.events
    assert len(log) == len(log.rows) == 50
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
    assert log.counts() == {
        "exec_begin": sum(1 for r in log.rows if r[1] == "exec_begin"),
        "exec_end": sum(1 for r in log.rows if r[1] == "exec_end"),
    }


# ------------------------------------------------------ Event as a view
def test_event_round_trip(ipsc8):
    log = run_echo(ipsc8, n=8, seed=1, trace_events=True).kernel.events
    records = log.as_records()
    assert list(records[0]) == list(Event._fields)
    events = log.events
    assert len(events) == len(log.rows) == len(records)
    for i, (row, record) in enumerate(zip(log.rows, records)):
        assert Event(*row).as_dict() == record
        assert events[i].eid == i
        assert events[i] == row
    first = events[0]
    assert (first.kind, first.t, first.pe) == (log.rows[0][1],
                                               log.rows[0][2], log.rows[0][3])


def test_log_bearing_rows_pickle_identically_across_jobs():
    descs = [describe("serving", "ncube2", 8, balancer="acwn", seed=s,
                      trace="all") for s in (1, 2)]
    with SweepExecutor(jobs=1) as ex1, use_executor(ex1):
        serial = measure_many(descs)
    with SweepExecutor(jobs=2) as ex2, use_executor(ex2):
        pooled = measure_many(descs)
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
