"""Timeline tests: the Projections-style view of a run's event log."""

import json

import pytest

from repro.metrics.sampler import busy_fractions, sample_metrics
from repro.trace import EventLog
from repro.trace.timeline import Timeline
from tests.conftest import run_echo

TIMELINE_KINDS = "exec_begin,exec_end"


@pytest.fixture
def traced_run(ipsc8):
    return run_echo(ipsc8, n=16, seed=1, trace_events=TIMELINE_KINDS)


def _timeline(result):
    return Timeline(result.kernel.events)


def _util(records, buckets):
    """The one offline utilization series: the sampler's ``util`` column."""
    return [row["util"] for row in sample_metrics(records, buckets=buckets)]


def _rows(*execs):
    """Begin/end row pairs for ``(pe, start, duration, name)`` executions;
    a ``service:entry`` name marks a service execution."""
    rows = []
    for pe, start, dur, name in execs:
        eid = len(rows)
        rows.append((eid, "exec_begin", start, pe, None, None, name, None,
                     None))
        rows.append((eid + 1, "exec_end", start + dur, pe, None, eid, name,
                     dur, None))
    return rows


def test_disabled_by_default(ipsc8):
    result = run_echo(ipsc8, n=4)
    assert result.kernel.events is None
    assert Timeline([]).render() == "(empty timeline)"


def test_records_every_execution(traced_run):
    tl = _timeline(traced_run)
    stats = traced_run.stats
    total_execs = sum(
        r.msgs_executed + r.seeds_executed + r.system_executed
        for r in stats.pe_rows
    )
    assert len(tl._spans) == total_execs


def test_intervals_have_labels_and_kinds(traced_run):
    tl = _timeline(traced_run)
    services = [s for s in tl._spans if s[3]]
    assert services and len(services) < len(tl._spans)
    # The service flag is the begin row's ``service:entry`` name.
    names = {r[6] for r in traced_run.kernel.events.rows
             if r[1] == "exec_begin"}
    assert "EchoWorker" in names and "reply" in names
    assert sum(":" in n for n in names) > 0


def test_intervals_nonoverlapping_per_pe(traced_run):
    tl = _timeline(traced_run)
    for pe in range(8):
        ivs = sorted((s for s in tl._spans if s[0] == pe),
                     key=lambda s: s[1])
        for a, b in zip(ivs, ivs[1:]):
            assert b[1] >= a[2] - 1e-12, f"overlap on PE {pe}"


def test_busy_time_matches_counters(traced_run):
    tl = _timeline(traced_run)
    for row in traced_run.stats.pe_rows:
        recorded = sum(s[2] - s[1] for s in tl._spans if s[0] == row.pe)
        assert recorded == pytest.approx(row.busy_time)


def test_span_and_gaps(traced_run):
    tl = _timeline(traced_run)
    lo, hi = tl.span()
    assert 0.0 <= lo < hi <= traced_run.time + 1e-12
    for row in traced_run.stats.pe_rows:
        ivs = sorted((s for s in tl._spans if s[0] == row.pe),
                     key=lambda s: s[1])
        gaps = [b[1] - a[2] for a, b in zip(ivs, ivs[1:])]
        assert max(gaps, default=0.0) <= row.largest_idle_gap + 1e-15


def test_utilization_profile_bounds(traced_run):
    profile = _util(traced_run.kernel.events.as_records(), 10)
    assert len(profile) == 10
    assert all(0.0 <= u <= 1.0 for u in profile)
    assert any(u > 0 for u in profile)


def test_render_ascii(traced_run):
    text = _timeline(traced_run).render(width=40)
    lines = text.splitlines()
    assert lines[0].startswith("timeline")
    assert len(lines) == 1 + 8
    assert all("|" in line for line in lines[1:])
    assert "#" in text


def test_render_and_profile_equal_the_interval_recorder():
    """Captured from the kernel's former per-execution interval recorder
    on the same run: the view reproduces it character for character and
    float for float."""
    from repro.machine.presets import make_machine

    tl_log = run_echo(make_machine("ipsc2", 8), n=16, seed=1,
                      trace_events=TIMELINE_KINDS).kernel.events
    tl = Timeline(tl_log)
    assert tl.render(width=40) == (
        "timeline 0.000..1.914 ms\n"
        "PE  0 |####...............######...####....####|\n"
        "PE  1 |.........++.............................|\n"
        "PE  2 |.........+###...........................|\n"
        "PE  3 |..................++....................|\n"
        "PE  4 |.........+#######.......................|\n"
        "PE  5 |..................+####.................|\n"
        "PE  6 |..................+###..................|\n"
        "PE  7 |..........................+#####........|")
    # The sampler's util column pairs each exec_end with ``t - dur``, not
    # with the begin row's ``t``: the same series to the last few ulps.
    assert _util(tl_log.as_records(), 10) == pytest.approx([
        0.11101243339253998, 0.0, 0.19146379688642767, 0.14517814230487944,
        0.17713666283564927, 0.23695277400480672, 0.055388674119736844,
        0.21258227980357347, 0.0, 0.06856650297774532], rel=1e-12)


def test_view_reads_log_records_and_json(traced_run):
    log = traced_run.kernel.events
    records = json.loads(json.dumps(log.as_records()))
    live = _timeline(traced_run)
    for source in (log.as_records(), records, log.events):
        tl = Timeline(source)
        assert tl.render(width=40) == live.render(width=40)


def test_superset_log_gives_the_same_view(ipsc8, traced_run):
    full = run_echo(ipsc8, n=16, seed=1, trace_events="all")
    assert (Timeline(full.kernel.events).render()
            == _timeline(traced_run).render())


def test_unpaired_rows_are_skipped():
    # exec_end only (its begin was filtered out): nothing to show.
    log = EventLog(kinds="exec_end")
    assert Timeline(log).render() == "(empty timeline)"
    rows = _rows((0, 0.0, 1.0, "a"))
    assert Timeline(rows[1:]).render() == "(empty timeline)"


def test_empty_timeline():
    tl = Timeline([])
    assert tl.span() == (0.0, 0.0)
    assert tl.render() == "(empty timeline)"
    assert sample_metrics([], buckets=5) == []


def test_zero_span_single_event_render():
    """Regression: a non-empty timeline whose only execution has zero
    duration (span hi == lo) rendered as "(empty timeline)", hiding a
    recorded run.  It must render an instantaneous mark instead."""
    tl = Timeline(_rows((0, 2.5e-3, 0.0, "tick")))
    text = tl.render(width=40)
    assert text != "(empty timeline)"
    lines = text.splitlines()
    assert "zero span" in lines[0]
    assert "1 instantaneous executions" in lines[0]
    pe0 = next(line for line in lines if line.startswith("PE  0"))
    assert "#" in pe0


def test_zero_span_multi_pe_render_marks_each_pe():
    tl = Timeline(_rows((0, 1.0, 0.0, "qd:probe"), (2, 1.0, 0.0, "work")))
    lines = tl.render().splitlines()
    assert len(lines) == 1 + 3  # header + PE0..PE2
    marks = {line[:5].strip(): line.split("|")[1] for line in lines[1:]}
    assert marks["PE  0"] == "+"   # svc-only cell
    assert marks["PE  1"] == "."   # no activity
    assert marks["PE  2"] == "#"   # app execution


def test_interval_ending_exactly_on_span_boundary():
    """An interval closing the span lands in the last bucket, fully counted."""
    profile = busy_fractions([(0.0, 0.5), (0.75, 1.0)], 0.0, 0.25, 4, 1)
    assert profile == pytest.approx([1.0, 1.0, 0.0, 1.0])
    assert _util(_rows((0, 0.0, 0.5, "a"), (0, 0.75, 0.25, "b")), 4) \
        == profile


def test_zero_duration_interval_at_span_end_not_dropped():
    """Regression: a zero-duration execution sitting exactly at ``hi``
    computed bucket/cell == count and fell off the grid entirely.  The PE
    whose only activity is that execution must still show a mark."""
    tl = Timeline(_rows((0, 0.0, 1.0, "work"),     # defines span
                        (1, 1.0, 0.0, "qd:tick")))  # at hi, PE 1
    # Utilization: must index the last bucket (adds 0 width), not drop or
    # crash.
    assert len(busy_fractions([(0.0, 1.0), (1.0, 1.0)], 0.0, 0.2, 5, 2)) == 5
    # Render: PE 1's row must carry the mark in the final cell.
    lines = tl.render(width=10).splitlines()
    pe1 = next(line for line in lines if line.startswith("PE  1"))
    body = pe1.split("|")[1]
    assert body[-1] == "+", f"zero-duration boundary mark lost: {pe1!r}"


_TWO_PE_ROWS = _rows((0, 0.0, 0.5, "a"), (1, 0.75, 0.25, "svc:b"))


def _two_pe_timeline():
    return Timeline(_TWO_PE_ROWS)


@pytest.mark.parametrize("call, field", [
    (lambda tl: _util(_TWO_PE_ROWS, 0), "buckets"),     # ZeroDivisionError
    (lambda tl: _util(_TWO_PE_ROWS, -2), "buckets"),    # IndexError
    (lambda tl: _util(_TWO_PE_ROWS, 2.5), "buckets"),
    (lambda tl: tl.render(width=0), "width"),           # ZeroDivisionError
    (lambda tl: tl.render(width=-1), "width"),
], ids=["buckets-0", "buckets-neg", "buckets-float", "width-0", "width-neg"])
def test_bad_sizes_rejected(call, field):
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=field):
        call(_two_pe_timeline())


def test_smallest_sizes_keep_parent_answers():
    tl = _two_pe_timeline()
    assert _util(_TWO_PE_ROWS, 1) == [0.375]
    assert _util(_TWO_PE_ROWS, 2) == [0.5, 0.25]
    assert tl.render(width=1) == (
        "timeline 0.000..1000.000 ms\nPE  0 |#|\nPE  1 |+|")
