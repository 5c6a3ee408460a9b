"""Structured event tracing: log, critical path, Perfetto, metrics, bench."""

import json
from collections import Counter

import pytest

from repro.bench.__main__ import _export
from repro.bench.cache import ResultCache
from repro.bench.harness import (describe, execute_descriptor, observation,
                                 observed)
from repro.bench.parallel import SweepExecutor
from repro.faults import FaultConfig
from repro.machine.presets import make_machine
from repro.metrics import metrics_summary, sample_metrics
from repro.trace import (
    EVENT_KINDS,
    Event,
    EventLog,
    critical_path,
    normalize_kinds,
    to_perfetto,
    write_perfetto,
)
from repro.util.errors import ConfigurationError
from tests.conftest import run_echo


@pytest.fixture
def traced_run(ipsc8):
    return run_echo(ipsc8, n=16, seed=1, trace_events=True)


@pytest.fixture
def records(traced_run):
    return traced_run.kernel.events.as_records()


# ------------------------------------------------------------------ basics
def test_tracing_off_by_default(ipsc8):
    result = run_echo(ipsc8, n=4)
    assert result.kernel.events is None


def test_tracing_off_is_bit_identical(ipsc8):
    base = run_echo(ipsc8, n=16, seed=1)
    traced = run_echo(make_machine("ipsc2", 8), n=16, seed=1,
                      trace_events=True)
    assert traced.time == base.time
    assert traced.result == base.result
    assert traced.events == base.events


def test_normalize_kinds_spellings():
    assert normalize_kinds(True) == EVENT_KINDS
    assert normalize_kinds("all") == EVENT_KINDS
    assert normalize_kinds("send, deliver") == ("deliver", "send")
    assert normalize_kinds(["qd", "qd", "lb"]) == ("lb", "qd")
    with pytest.raises(ConfigurationError):
        normalize_kinds("sends")
    # No kind at all is refused, not a log that records nothing; a bool
    # other than True is not a selection.
    for nothing in ("", " , ", (), [], False):
        with pytest.raises(ConfigurationError, match="kind"):
            normalize_kinds(nothing)
        with pytest.raises(ConfigurationError, match="kind"):
            describe("fib", "ipsc2", 8, trace=nothing)


def test_log_structure(traced_run, records):
    log = traced_run.kernel.events
    assert len(log.rows) == len(records)
    counts = Counter(row[1] for row in log.rows)
    # Every execution produces exactly one begin/end pair.
    assert counts["exec_begin"] == counts["exec_end"]
    stats = traced_run.stats
    total_execs = sum(
        r.msgs_executed + r.seeds_executed + r.system_executed
        for r in stats.pe_rows
    )
    assert counts["exec_begin"] == total_execs
    # Fault-free run: one deliver per send, no fault events.
    assert counts["send"] == counts["deliver"]
    assert counts["fault"] == 0
    # eids are the log indices; parents always point backwards.
    for i, e in enumerate(records):
        assert e["eid"] == i
        if e["parent"] is not None:
            assert 0 <= e["parent"] < i
        assert e["kind"] in EVENT_KINDS
        assert e["t"] >= 0.0


def test_send_deliver_chain_by_uid(records):
    sends = {e["uid"]: e for e in records if e["kind"] == "send"}
    for e in records:
        if e["kind"] == "deliver":
            # Every delivery parents on the send of the same uid.
            assert e["parent"] == sends[e["uid"]]["eid"]


def test_exec_begin_parents_on_delivery(records):
    delivers = {e["uid"]: e for e in records if e["kind"] == "deliver"}
    roots = 0
    for e in records:
        if e["kind"] != "exec_begin":
            continue
        if e["uid"] is None or e["uid"] not in delivers:
            roots += 1  # bootstrap main-chare construction
        else:
            assert e["parent"] == delivers[e["uid"]]["eid"]
    assert roots == 1


def test_idle_gap_events_match_pe_aggregate(traced_run, records):
    by_pe = {}
    for e in records:
        if e["kind"] == "idle_gap":
            assert e["dur"] > 0.0
            by_pe[e["pe"]] = max(by_pe.get(e["pe"], 0.0), e["dur"])
    for row in traced_run.stats.pe_rows:
        assert by_pe.get(row.pe, 0.0) == pytest.approx(row.largest_idle_gap)


# ----------------------------------------------------------- critical path
def test_critical_path_properties(traced_run, records):
    cp = critical_path(records)
    assert cp is not None and not cp.truncated
    # Terminal step is the exit-flagged execution end.
    last = cp.steps[-1]
    assert last.kind == "exec_end"
    term = next(e for e in records if e["eid"] == last.eid)
    assert term["info"] == {"exit": True}
    # The chain reaches the bootstrap (main-chare construction).
    assert cp.steps[0].kind == "exec_begin"
    assert cp.steps[0].name == "EchoMain"
    # Path length can never exceed the run's makespan.
    assert 0.0 < cp.length <= traced_run.time + 1e-12
    assert cp.exec_time + cp.transit_time + cp.wait_time + cp.other_time == (
        pytest.approx(cp.length)
    )
    assert cp.hops == sum(1 for s in cp.steps if s.kind == "deliver")
    # Times along the path never go backwards.
    for a, b in zip(cp.steps, cp.steps[1:]):
        assert b.t >= a.t - 1e-12
    text = cp.summary()
    assert "critical path" in text and "by entry method" in text


def test_critical_path_empty_and_missing():
    assert critical_path([]) is None
    # No exec_end at all -> nothing to anchor on.
    log = EventLog(kinds=("send",))
    assert critical_path(log.as_records()) is None


# ----------------------------------------------------- filtering / bounds
def test_kind_filtering_records_only_selected(ipsc8):
    result = run_echo(ipsc8, n=8, seed=1, trace_events="exec_end,idle_gap")
    log = result.kernel.events
    assert {row[1] for row in log.rows} <= {"exec_end", "idle_gap"}
    assert any(row[1] == "exec_end" for row in log.rows)


def test_filtered_sends_still_telescope_chains(ipsc8):
    # With send/deliver filtered out, exec_begin parents telescope through
    # to the sending execution instead of breaking.
    result = run_echo(ipsc8, n=8, seed=1,
                      trace_events="exec_begin,exec_end")
    recs = result.kernel.events.as_records()
    begins = [e for e in recs if e["kind"] == "exec_begin"]
    eids = {e["eid"] for e in recs}
    parented = [e for e in begins if e["parent"] is not None]
    assert parented, "no causal links survived filtering"
    for e in parented:
        assert e["parent"] in eids
    cp = critical_path(recs)
    assert cp is not None
    assert cp.length <= result.time + 1e-12


def test_bounded_log_drops_and_telescopes(ipsc8):
    result = run_echo(ipsc8, n=16, seed=1,
                      trace_events=EventLog(kinds=True, max_events=50))
    log = result.kernel.events
    assert len(log.rows) == 50
    assert log.dropped > 0
    # Surviving events never point at dropped (never-assigned) eids.
    for e in map(Event._make, log.rows):
        if e.parent is not None:
            assert e.parent < 50


def test_event_log_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        EventLog(max_events=0)
    with pytest.raises(ConfigurationError):
        EventLog(kinds="bogus")
    with pytest.raises(ConfigurationError):
        EventLog().record("send", 0.0, 0)  # record() is control-plane only


# ----------------------------------------------------------------- faults
@pytest.fixture
def faulty_run():
    machine = make_machine("ipsc2", 8)
    cfg = FaultConfig(drop_prob=0.15, dup_prob=0.1, delay_prob=0.1,
                      stall_prob=0.05)
    return run_echo(machine, n=16, seed=3, trace_events=True, faults=cfg)


def test_faults_exactly_one_deliver_per_uid(faulty_run):
    recs = faulty_run.kernel.events.as_records()
    stats = faulty_run.stats
    assert stats.retries > 0 and stats.dups_suppressed > 0  # faults fired
    deliveries = Counter(e["uid"] for e in recs if e["kind"] == "deliver")
    assert all(c == 1 for c in deliveries.values())


def test_fault_retries_link_to_original_send(faulty_run):
    recs = faulty_run.kernel.events.as_records()
    sends = {e["uid"]: e["eid"] for e in recs if e["kind"] == "send"}
    retries = [e for e in recs
               if e["kind"] == "fault" and e["name"] == "retry"]
    assert retries
    for e in retries:
        # A retransmission extends the original envelope's chain: its
        # parent is that uid's (single) send event, not a fresh root.
        assert e["parent"] == sends[e["uid"]]
        assert e["info"]["attempt"] >= 1
    # The same holds for suppressed duplicates.
    for e in recs:
        if e["kind"] == "fault" and e["name"] == "dup_suppressed":
            assert e["parent"] == sends[e["uid"]]


def test_faults_critical_path_exactly_once(faulty_run):
    recs = faulty_run.kernel.events.as_records()
    cp = critical_path(recs)
    assert cp is not None
    assert cp.length <= faulty_run.time + 1e-12
    uids = [s.uid for s in cp.steps if s.kind == "deliver"]
    assert len(uids) == len(set(uids))  # each logical message at most once


# --------------------------------------------------------------- perfetto
def _phase_index(doc):
    by_phase = {}
    for e in doc["traceEvents"]:
        by_phase.setdefault(e["ph"], []).append(e)
    return by_phase


def test_perfetto_schema(records, traced_run, tmp_path):
    metrics = sample_metrics(records, num_pes=8, t_end=traced_run.time)
    doc = to_perfetto(records, meta={"app": "echo"}, metrics=metrics)
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["format"] == "repro-perfetto-v1"
    by_phase = _phase_index(doc)
    # Complete slices carry name/pid/tid/ts/dur with ts/dur in (float) us.
    for e in by_phase["X"]:
        for key in ("name", "pid", "tid", "ts", "dur"):
            assert key in e
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
    # Flow events come in balanced s/f pairs sharing an id.
    starts = {e["id"] for e in by_phase.get("s", ())}
    finishes = {e["id"] for e in by_phase.get("f", ())}
    assert starts and starts == finishes
    for e in by_phase.get("f", ()):
        assert e["bp"] == "e"
    # Metadata names every PE process.
    names = {e["args"]["name"] for e in by_phase["M"]
             if e["name"] == "process_name"}
    assert names == {f"PE {i}" for i in range(8)}
    # Counters exist and parse.
    assert any(e["name"] == "messages in flight"
               for e in by_phase.get("C", ()))
    # The file round-trips as JSON.
    out = tmp_path / "trace.perfetto.json"
    n = write_perfetto(str(out), records, meta={"app": "echo"},
                       metrics=metrics)
    loaded = json.loads(out.read_text())
    assert len(loaded["traceEvents"]) == n


def test_perfetto_empty_records():
    doc = to_perfetto([])
    assert doc["traceEvents"] == []


# ---------------------------------------------------------------- metrics
def test_sample_metrics_sanity(records, traced_run):
    rows = sample_metrics(records, buckets=20, num_pes=8,
                          t_end=traced_run.time)
    assert len(rows) == 20
    sent = sum(e["kind"] == "send" for e in records)
    execd = sum(e["kind"] == "exec_end" for e in records)
    assert sum(r["msgs_sent"] for r in rows) == sent
    assert sum(r["msgs_executed"] for r in rows) == execd
    for r in rows:
        assert 0.0 <= r["util"] <= 1.0
        assert r["t1"] > r["t0"]
        assert r["in_flight_max"] >= 0
        assert r["bytes_on_wire_max"] >= 0
        assert r["pool_max"] >= 0
    assert any(r["util"] > 0 for r in rows)
    assert any(r["in_flight_max"] > 0 for r in rows)


def test_sample_metrics_empty():
    assert sample_metrics([]) == []


def _rec(eid, kind, t, pe=0, uid=None, parent=None, dur=None, info=None):
    return {"eid": eid, "kind": kind, "t": t, "pe": pe, "uid": uid,
            "parent": parent, "name": None, "dur": dur, "info": info}


def test_sample_metrics_rejects_bad_num_pes():
    recs = [_rec(0, "send", 0.0)]
    with pytest.raises(ConfigurationError, match="num_pes"):
        sample_metrics(recs, num_pes=0)
    with pytest.raises(ConfigurationError, match="num_pes"):
        sample_metrics(recs, num_pes=-4)
    with pytest.raises(ConfigurationError, match="buckets"):
        sample_metrics(recs, buckets=0)


def test_sample_metrics_event_at_exact_span_end():
    """An event stamped exactly at t_end must land in the LAST bucket,
    not fall off the end (the half-open [t0, t1) rule has a closed last
    bucket)."""
    recs = [_rec(0, "send", 0.5), _rec(1, "send", 1.0)]
    rows = sample_metrics(recs, buckets=4, num_pes=1, t_end=1.0)
    assert sum(r["msgs_sent"] for r in rows) == 2
    assert rows[-1]["msgs_sent"] == 1
    assert rows[2]["msgs_sent"] == 1  # 0.5 -> bucket [0.5, 0.75)


def test_sample_metrics_single_event_run():
    recs = [_rec(0, "exec_end", 2e-3, dur=2e-3)]
    rows = sample_metrics(recs, buckets=2, num_pes=1)
    assert len(rows) == 2
    assert sum(r["msgs_executed"] for r in rows) == 1
    # The 2 ms execution spans both 1 ms buckets completely.
    assert rows[0]["util"] == pytest.approx(1.0)
    assert rows[1]["util"] == pytest.approx(1.0)


def test_sample_metrics_zero_span_run():
    """All events at t == 0 (and t_end == 0): span degenerates but rows
    still come out, with every event in the catch-all first second."""
    recs = [_rec(0, "send", 0.0), _rec(1, "exec_end", 0.0, dur=0.0)]
    rows = sample_metrics(recs, buckets=3, num_pes=2)
    assert len(rows) == 3
    assert sum(r["msgs_sent"] for r in rows) == 1
    assert sum(r["msgs_executed"] for r in rows) == 1
    assert all(r["t1"] > r["t0"] for r in rows)
    assert all(r["util"] == 0.0 for r in rows)


def test_sample_metrics_reads_absent_keys_as_none():
    """A hand-built record without ``dur`` (or ``uid``, ``parent``,
    ``name``, ``info``) reads it as None, as the walk and the timeline
    do."""
    full = [_rec(0, "idle_gap", 0.0), _rec(1, "exec_end", 1e-3, pe=1)]
    sparse = [{k: v for k, v in rec.items() if v is not None}
              for rec in full]
    assert "dur" not in sparse[0]
    assert sample_metrics(sparse, buckets=2) == sample_metrics(full,
                                                               buckets=2)


def test_metrics_summary_edge_inputs():
    assert metrics_summary([]) == "metrics: (no samples)"
    rows = sample_metrics([_rec(0, "exec_end", 1e-3, dur=1e-3)],
                          buckets=1, num_pes=1)
    line = metrics_summary(rows)
    assert "1 buckets" in line and "mean util 100.0%" in line


# ------------------------------------------------------------- bench path
def test_descriptor_key_includes_trace():
    plain = describe("queens", "ipsc2", 4, n=6, grainsize=2)
    traced = describe("queens", "ipsc2", 4, n=6, grainsize=2, trace="all")
    subset = describe("queens", "ipsc2", 4, n=6, grainsize=2,
                      trace="send,deliver")
    assert "trace_events" not in dict(plain.params)
    assert dict(traced.params)["trace_events"] == EVENT_KINDS
    assert dict(subset.params)["trace_events"] == ("deliver", "send")
    assert len({plain.key(), traced.key(), subset.key()}) == 3
    # The kinds are a param like any other: no field, no extra tag.
    assert traced.canonical()[:5] == plain.canonical()[:5]
    assert len(traced.canonical()) == len(plain.canonical()) == 7


def test_stamped_trace_kinds_fill_only_unset_descriptors(tmp_path):
    """The bench CLI's stamp adds its kinds to a descriptor that states no
    ``trace_events``; one that states kinds, or ``None``, keeps them."""
    plain = describe("queens", "ipsc2", 4, n=6, grainsize=2)
    own = describe("queens", "ipsc2", 4, n=6, grainsize=2, trace="send")
    off = describe("queens", "ipsc2", 4, n=6, grainsize=2, trace_events=None)
    stamp = observation(trace="qd,lb")
    traced = observed(plain, stamp)
    assert traced == describe(
        "queens", "ipsc2", 4, n=6, grainsize=2, trace="lb,qd")
    assert observed(own, stamp) is own and observed(off, stamp) is off
    cache = ResultCache(str(tmp_path))
    with SweepExecutor(jobs=1, cache=cache) as ex:
        rows = ex.run_many([observed(d, stamp) for d in (plain, own, off)])
    assert [row.trace and row.trace["meta"]["kinds"] for row in rows] == [
        ["lb", "qd"], ["send"], None]
    # Stored under the stamped descriptor's key, not the bare one's.
    assert cache.get(traced) is not None
    assert cache.get(plain) is None


@pytest.mark.parametrize("kinds, says", [
    ("send,bogus", "unknown trace event kind 'bogus'"),
    ("", "no trace event kind selected"),
], ids=["unknown", "empty"])
def test_cli_bad_trace_kinds_are_a_usage_error(kinds, says, capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--exp", "t9", "--scale", "quick", "--no-cache",
              "--trace-events", kinds])
    assert exit_info.value.code == 2
    assert f"--trace-events: {says}" in capsys.readouterr().err


def test_traced_measure_row_payload(tmp_path):
    desc = describe("queens", "ipsc2", 4, n=6, grainsize=2, seed=1,
                    trace="all")
    out = tmp_path / "traces"
    with SweepExecutor(jobs=1) as executor:
        (row,) = executor.run_many([desc], label="trace-test")
    trace = row.trace
    assert trace["format"] == "repro-trace-v1"
    assert trace["meta"]["app"] == "queens"
    assert trace["meta"]["num_pes"] == 4
    assert trace["meta"]["total_time"] == row.vtime
    assert trace["dropped"] == 0
    assert all(isinstance(e, dict) for e in trace["events"])
    assert _export([desc], [row], str(out), None) == {"traces_written": 1}
    run_files = sorted(p.name for p in out.iterdir())
    assert len(run_files) == 2  # .run.json + .perfetto.json
    doc = json.loads((out / [f for f in run_files
                             if f.endswith(".run.json")][0]).read_text())
    assert doc["events"] == trace["events"]
    assert doc["metrics"]  # sampled at export time
    cp = critical_path(doc["events"])
    assert cp is not None and cp.length <= row.vtime + 1e-12


def test_traced_rows_identical_across_jobs(tmp_path):
    descs = [describe("queens", "ipsc2", 4, n=6, grainsize=2, seed=s,
                      trace="all") for s in (1, 2)]
    with SweepExecutor(jobs=1) as ex1:
        serial = ex1.run_many(descs)
    with SweepExecutor(jobs=2) as ex2:
        pooled = ex2.run_many(descs)
    for a, b in zip(serial, pooled):
        assert a.vtime == b.vtime
        assert a.trace["events"] == b.trace["events"]


def test_untraced_rows_have_no_payload():
    desc = describe("queens", "ipsc2", 4, n=6, grainsize=2)
    with SweepExecutor(jobs=1) as ex:
        (row,) = ex.run_many([desc])
    assert row.trace is None
    live = execute_descriptor(desc)
    assert live.trace is None
    assert live.result.kernel.events is None


# -------------------------------------------------------------------- CLI
def test_trace_cli_smoke(tmp_path, capsys, records, traced_run):
    from repro.trace.__main__ import main

    run_path = tmp_path / "echo.run.json"
    run_path.write_text(json.dumps({
        "format": "repro-trace-v1",
        "meta": {"app": "echo", "machine": "ipsc2", "num_pes": 8, "seed": 1,
                 "queueing": "fifo", "balancer": "random",
                 "total_time": traced_run.time, "kinds": list(EVENT_KINDS)},
        "events": records,
        "dropped": 0,
    }))
    perfetto_path = tmp_path / "echo.perfetto.json"
    assert main([str(run_path), "--perfetto", str(perfetto_path)]) == 0
    out = capsys.readouterr().out
    assert "run: app=echo" in out
    assert "critical path:" in out
    assert "metrics:" in out
    assert "perfetto: wrote" in out
    assert json.loads(perfetto_path.read_text())["traceEvents"]


def test_trace_cli_bare_record_list(tmp_path, capsys, records):
    from repro.trace.__main__ import main

    run_path = tmp_path / "bare.json"
    run_path.write_text(json.dumps(records))
    assert main([str(run_path)]) == 0
    assert "critical path:" in capsys.readouterr().out


def test_trace_cli_rejects_non_trace(tmp_path):
    from repro.trace.__main__ import main

    bogus = tmp_path / "x.json"
    bogus.write_text(json.dumps({"nope": 1}))
    with pytest.raises(SystemExit):
        main([str(bogus)])


_RECORD = {"eid": 0, "kind": "send", "t": 0.0, "pe": 0}


@pytest.mark.parametrize("content, fault", [
    (None, "No such file"),
    ("{not json", "not JSON"),
    (json.dumps({"events": 5}), "not a repro trace"),
    (json.dumps([{"eid": 0, "t": 0.0, "pe": 0}]),
     "event 0 is not a record of a known kind"),
    (json.dumps("events"), "not a repro trace"),
    (json.dumps([_RECORD, dict(_RECORD, eid=1, kind="bogus")]),
     "event 1 is not a record of a known kind"),
    (json.dumps([_RECORD, dict(_RECORD, eid=1, t=None)]),
     "event 1 has t None, not a number"),
], ids=["missing", "not-json", "events-not-list", "no-kind", "json-string",
        "unknown-kind", "no-time"])
def test_trace_cli_malformed_file_is_a_usage_error(tmp_path, capsys,
                                                   content, fault):
    """Outside input: each fault exits 2 naming the file and the fault,
    not with a traceback (or, for an unknown kind, a report)."""
    from repro.trace.__main__ import main

    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and fault in err


# ------------------------------------------------------------- aggregates
def test_report_idle_aggregates(traced_run):
    stats = traced_run.stats
    for row in stats.pe_rows:
        assert row.idle_time == pytest.approx(
            max(0.0, stats.total_time - row.busy_time))
        assert 0.0 <= row.largest_idle_gap <= stats.total_time
    assert stats.total_idle_time == pytest.approx(
        sum(r.idle_time for r in stats.pe_rows))
    assert stats.max_idle_gap == max(
        r.largest_idle_gap for r in stats.pe_rows)
    assert stats.pool_high_water == max(r.max_pool for r in stats.pe_rows)
    d = stats.as_dict()
    assert {"idle_time", "max_idle_gap", "pool_high_water"} <= set(d)
    assert "largest idle gap" in stats.summary()
    assert "pool high-water" in stats.summary()


def test_idle_aggregates_present_without_tracing(ipsc8):
    # largest_idle_gap is an always-on counter: no tracing required.
    stats = run_echo(ipsc8, n=16, seed=1).stats
    assert stats.max_idle_gap > 0.0


# ------------------------------------------------- sizes and recorder types
@pytest.mark.parametrize("value", [42, 1.5, object(), False],
                         ids=["int", "float", "object", "false"])
def test_non_recorder_trace_events_rejected(ipsc8, value):
    from repro.core.kernel import Kernel

    with pytest.raises(ConfigurationError, match="trace_events"):
        Kernel(ipsc8, trace_events=value)


@pytest.mark.parametrize("value", [True, "all", "send", ("send",),
                                   EventLog])
def test_recorder_spellings_keep_the_untraced_run(ipsc8, value):
    base = run_echo(ipsc8, n=16, seed=1)
    spec = value() if value is EventLog else value
    traced = run_echo(ipsc8, n=16, seed=1, trace_events=spec)
    assert (traced.result, traced.time, traced.events) == \
        (base.result, base.time, base.events)
    assert len(traced.kernel.events.rows) > 0


@pytest.mark.parametrize("value", [2.5, True, "9"])
def test_event_log_max_events_must_be_an_int(value):
    with pytest.raises(ConfigurationError, match="max_events"):
        EventLog(max_events=value)


def test_event_log_smallest_bound_still_records(ipsc8):
    log = EventLog(max_events=1)
    run_echo(ipsc8, n=4, seed=1, trace_events=log)
    assert len(log.rows) == 1 and log.dropped > 0


def test_sample_metrics_rejects_fractional_buckets():
    recs = [_rec(0, "send", 0.5), _rec(1, "send", 1.0)]
    with pytest.raises(ConfigurationError, match="buckets"):
        sample_metrics(recs, buckets=2.5)
    rows = sample_metrics(recs, buckets=2, num_pes=1, t_end=1.0)
    assert [r["msgs_sent"] for r in rows] == [0, 2]


def _cli_run(tmp_path, records, traced_run):
    run_path = tmp_path / "echo.run.json"
    run_path.write_text(json.dumps({
        "format": "repro-trace-v1",
        "meta": {"num_pes": 8, "total_time": traced_run.time},
        "events": records, "dropped": 0,
    }))
    return str(run_path)


@pytest.mark.parametrize("flags", [["--buckets", "0"], ["--buckets", "-3"],
                                   ["--top", "-2"]],
                         ids=["buckets-0", "buckets-neg", "top-neg"])
def test_trace_cli_rejects_bad_sizes(tmp_path, capsys, records, traced_run,
                                     flags):
    from repro.trace.__main__ import main

    with pytest.raises(SystemExit):
        main([_cli_run(tmp_path, records, traced_run)] + flags)
    assert flags[0] in capsys.readouterr().err


def test_trace_cli_smallest_sizes(tmp_path, capsys, records, traced_run):
    from repro.trace.__main__ import main

    path = _cli_run(tmp_path, records, traced_run)
    assert main([path, "--buckets", "1", "--top", "0"]) == 0
    out = capsys.readouterr().out
    assert "metrics: 1 buckets" in out
    attributed = critical_path(records).summary(top=0).splitlines()[-1]
    assert attributed.strip().startswith("... and ") and attributed in out


def _stored_metrics_run(tmp_path, records, traced_run, metrics):
    """What ``--trace-out`` writes: the events plus a stored ``metrics``."""
    path = _cli_run(tmp_path, records, traced_run)
    doc = json.loads(open(path).read())
    doc["metrics"] = metrics
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_trace_cli_buckets_resample_a_stored_export(tmp_path, capsys,
                                                    records, traced_run):
    """``--buckets`` used to be ignored on every exported ``.run.json``:
    the CLI printed the 60 buckets the exporter had stored."""
    from repro.trace.__main__ import main

    stored = sample_metrics(records, num_pes=8, t_end=traced_run.time)
    path = _stored_metrics_run(tmp_path, records, traced_run, stored)
    perfetto = tmp_path / "five.perfetto.json"
    assert main([path, "--buckets", "5", "--perfetto", str(perfetto)]) == 0
    assert "metrics: 5 buckets" in capsys.readouterr().out
    assert main([path]) == 0
    assert "metrics: 60 buckets" in capsys.readouterr().out


def test_trace_cli_never_reads_a_stored_metrics_field(tmp_path, capsys,
                                                      records, traced_run):
    """A stored ``"metrics": 5`` used to end in a ``TypeError``."""
    from repro.trace.__main__ import main

    path = _stored_metrics_run(tmp_path, records, traced_run, 5)
    assert main([path]) == 0
    assert "metrics: 60 buckets" in capsys.readouterr().out


def test_recorder_pair_answers_causal_calls_from_the_recorder():
    from repro.obs import Telemetry
    from repro.trace.events import RecorderPair

    log = EventLog()
    pair = RecorderPair(log, Telemetry())
    # Telemetry's per-message hooks are no-ops: the log's are bound as is.
    assert pair.msg_send == log.msg_send
    assert pair.msg_deliver == log.msg_deliver
    pair.ctx = 7
    assert log.ctx == 7
    eid = pair.record("qd", 0.0, 0, parent=3)
    assert log.rows[eid][1:6] == ("qd", 0.0, 0, None, 3)
