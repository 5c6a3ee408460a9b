"""Edge-case hardening for the trace analyzers.

Two satellites of the telemetry PR:

* :mod:`repro.metrics.latency` — nearest-rank percentiles and the
  parent-chain walk must behave on degenerate inputs: empty traces,
  single-request logs, truncated chains, and (hand-built or corrupted)
  logs containing parent *cycles*, which must terminate the walk rather
  than hang the analyzer.
* :mod:`repro.trace.critical_path` — empty logs, a single event, logs
  with no execution to anchor the walk, dropped parents, and cycles.

All inputs here are synthetic event dicts — the analyzers are documented
as pure functions of the records, so hand-built logs are legal inputs.
"""

from __future__ import annotations

import pytest

from repro.metrics.latency import latency_summary, request_latencies
from repro.trace.critical_path import critical_path
from tests.conftest import latency_summary_of


def _ev(eid, kind, t, parent=None, name=None, dur=None, info=None, pe=0):
    return {"eid": eid, "kind": kind, "t": t, "pe": pe, "uid": eid,
            "name": name, "parent": parent, "dur": dur, "info": info}


def _single_request_log():
    """source tick -> send -> deliver -> Request exec -> done send."""
    return [
        _ev(1, "exec_begin", 0.000, name="tick"),
        _ev(2, "send", 0.001, parent=1),
        _ev(3, "deliver", 0.002, parent=2),
        _ev(4, "exec_begin", 0.003, parent=3, name="Request"),
        _ev(5, "exec_end", 0.004, parent=4, name="Request", dur=0.001),
        _ev(6, "send", 0.004, parent=4, name="done"),
    ]


# ============================================================== percentile
class TestPercentile:
    def test_single_sample_every_quantile(self):
        s = latency_summary_of([7.5])
        assert s["p50"] == s["p95"] == s["p99"] == 7.5

    def test_nearest_rank_small_samples(self):
        s = latency_summary_of([30.0, 10.0, 20.0])  # unsorted on purpose
        assert s["p50"] == 20.0    # ceil(1.5) = 2nd
        assert s["p95"] == 30.0    # ceil(2.85) = 3rd
        assert s["p99"] == 30.0


# ====================================================== request_latencies
class TestRequestLatencies:
    def test_empty_trace(self):
        assert request_latencies([]) == []

    def test_single_request_reconstruction(self):
        rows = request_latencies(_single_request_log())
        assert len(rows) == 1
        r = rows[0]
        assert r["kind"] == "done"
        assert r["inject_t"] == 0.001
        assert r["complete_t"] == 0.004  # the exec_end, not the done send
        assert r["latency"] == pytest.approx(0.003)
        assert r["queue_wait"] == pytest.approx(0.001)
        assert r["service"] == pytest.approx(0.001)
        assert r["stages"] == 1

    def test_truncated_chain_is_skipped(self):
        # Drop the deliver: the stage walk cannot reach an injection point.
        log = [e for e in _single_request_log() if e["eid"] != 3]
        assert request_latencies(log) == []

    def test_origin_walk_cycle_terminates(self):
        # send <-> deliver parent cycle upstream of the request stage; the
        # walk must terminate (keeping the earliest send it saw) instead
        # of hanging.
        log = _single_request_log()
        log[1]["parent"] = 3  # send's parent is the deliver it produced
        rows = request_latencies(log)
        assert len(rows) == 1
        assert rows[0]["inject_t"] == 0.001

    def test_stage_walk_cycle_terminates(self):
        # A "previous stage" chain that loops back onto the final stage.
        log = [
            _ev(1, "exec_begin", 0.003, parent=2, name="Request"),
            _ev(2, "deliver", 0.002, parent=3),
            _ev(3, "send", 0.001, parent=1),  # emitted by eid 1: a cycle
            _ev(4, "send", 0.004, parent=1, name="done"),
        ]
        assert request_latencies(log) == []  # no hang, no bogus record

    def test_non_request_completion_ignored(self):
        log = _single_request_log()
        log[3]["name"] = "Imposter"
        log[4]["name"] = "Imposter"
        assert request_latencies(log) == []


# ========================================================= latency_summary
class TestLatencySummary:
    def test_empty_trace_summary_stays_visibly_empty(self):
        s = latency_summary(())
        assert (s["requests"], s["completed"], s["shed"]) == (0, 0, 0)
        for key in ("p50", "p95", "p99", "mean", "min", "max",
                    "mean_queue_wait", "mean_service", "mean_transit"):
            assert s[key] is None, key

    def test_single_request_summary(self):
        s = latency_summary(_single_request_log())
        assert (s["requests"], s["completed"], s["shed"]) == (1, 1, 0)
        lat = 0.003
        assert s["p50"] == s["p95"] == s["p99"] == pytest.approx(lat)
        assert s["mean"] == s["min"] == s["max"] == pytest.approx(lat)
        assert s["mean_transit"] == pytest.approx(
            lat - s["mean_queue_wait"] - s["mean_service"])


# =========================================================== critical path
class TestCriticalPathEdges:
    def test_empty_log(self):
        assert critical_path([]) is None

    def test_no_execution_to_anchor(self):
        # An all-idle (send/deliver-only) filtered trace has no exec_end.
        log = [_ev(1, "send", 0.0), _ev(2, "deliver", 0.1, parent=1)]
        assert critical_path(log) is None

    def test_single_event(self):
        cp = critical_path([
            _ev(1, "exec_end", 2.0, info={"exit": True}),
        ])
        assert cp is not None
        assert len(cp.steps) == 1
        assert cp.length == 0.0
        assert cp.start_time == cp.end_time == 2.0
        assert not cp.truncated
        assert cp.hops == 0
        assert "critical path" in cp.summary()

    def test_dropped_parent_marks_truncated(self):
        cp = critical_path([_ev(5, "exec_end", 1.0, parent=4)])
        assert cp is not None and cp.truncated

    def test_parent_cycle_marks_truncated(self):
        cp = critical_path([
            _ev(1, "exec_begin", 0.0, parent=2, name="m"),
            _ev(2, "exec_end", 1.0, parent=1, info={"exit": True}),
        ])
        assert cp is not None
        assert cp.truncated
        assert cp.length >= 0.0
