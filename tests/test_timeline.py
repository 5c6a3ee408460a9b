"""Timeline tracer tests."""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.trace.timeline import Interval, Timeline
from tests.conftest import run_echo


@pytest.fixture
def traced_run(ipsc8):
    return run_echo(ipsc8, n=16, seed=1, timeline=True)


def test_disabled_by_default(ipsc8):
    result = run_echo(ipsc8, n=4)
    assert result.kernel.timeline is None


def test_records_every_execution(traced_run):
    tl = traced_run.kernel.timeline
    stats = traced_run.stats
    total_execs = sum(
        r.msgs_executed + r.seeds_executed + r.system_executed
        for r in stats.pe_rows
    )
    assert len(tl.intervals) == total_execs


def test_intervals_have_labels_and_kinds(traced_run):
    tl = traced_run.kernel.timeline
    kinds = {iv.kind for iv in tl.intervals}
    labels = {iv.label for iv in tl.intervals}
    assert "seed" in kinds and "svc" in kinds and "app" in kinds
    assert "EchoWorker" in labels   # seeds are labeled by chare class
    assert "reply" in labels        # app messages by entry name


def test_intervals_nonoverlapping_per_pe(traced_run):
    tl = traced_run.kernel.timeline
    for pe in range(8):
        ivs = sorted(tl.for_pe(pe), key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            assert b.start >= a.end - 1e-12, f"overlap on PE {pe}"


def test_busy_time_matches_counters(traced_run):
    tl = traced_run.kernel.timeline
    for row in traced_run.stats.pe_rows:
        recorded = sum(iv.duration for iv in tl.for_pe(row.pe))
        assert recorded == pytest.approx(row.busy_time)


def test_span_and_gaps(traced_run):
    tl = traced_run.kernel.timeline
    lo, hi = tl.span()
    assert 0.0 <= lo < hi <= traced_run.time + 1e-12
    for pe in range(8):
        for a, b in tl.idle_gaps(pe):
            assert b > a
        assert tl.largest_idle_gap(pe) >= 0.0


def test_utilization_profile_bounds(traced_run):
    profile = traced_run.kernel.timeline.utilization_profile(buckets=10)
    assert len(profile) == 10
    assert all(0.0 <= u <= 1.0 for u in profile)
    assert any(u > 0 for u in profile)


def test_by_label_accounts_all_time(traced_run):
    tl = traced_run.kernel.timeline
    assert sum(tl.by_label().values()) == pytest.approx(
        sum(iv.duration for iv in tl.intervals)
    )


def test_render_ascii(traced_run):
    text = traced_run.kernel.timeline.render(width=40)
    lines = text.splitlines()
    assert lines[0].startswith("timeline")
    assert len(lines) == 1 + 8
    assert all("|" in line for line in lines[1:])
    assert "#" in text


def test_empty_timeline():
    tl = Timeline()
    assert tl.span() == (0.0, 0.0)
    assert tl.render() == "(empty timeline)"
    assert tl.utilization_profile(5) == [0.0] * 5


def test_interval_end_property():
    iv = Interval(0, 1.0, 0.5, "app", "x")
    assert iv.end == 1.5


def test_zero_span_single_event_render():
    """Regression: a non-empty timeline whose only execution has zero
    duration (span hi == lo) rendered as "(empty timeline)", hiding a
    recorded run.  It must render an instantaneous mark instead."""
    tl = Timeline()
    tl._intervals.append(Interval(0, 2.5e-3, 0.0, "app", "tick"))
    text = tl.render(width=40)
    assert text != "(empty timeline)"
    lines = text.splitlines()
    assert "zero span" in lines[0]
    assert "1 instantaneous executions" in lines[0]
    pe0 = next(line for line in lines if line.startswith("PE  0"))
    assert "#" in pe0


def test_zero_span_multi_pe_render_marks_each_pe():
    tl = Timeline()
    tl._intervals.append(Interval(0, 1.0, 0.0, "svc", "probe"))
    tl._intervals.append(Interval(2, 1.0, 0.0, "app", "work"))
    lines = tl.render().splitlines()
    assert len(lines) == 1 + 3  # header + PE0..PE2
    marks = {line[:5].strip(): line.split("|")[1] for line in lines[1:]}
    assert marks["PE  0"] == "+"   # svc-only cell
    assert marks["PE  1"] == "."   # no activity
    assert marks["PE  2"] == "#"   # app execution
    # Analyses still behave on the degenerate span.
    assert tl.utilization_profile(4) == [0.0] * 4
    assert tl.largest_idle_gap(0) == 0.0


def test_interval_ending_exactly_on_span_boundary():
    """An interval closing the span lands in the last bucket, fully counted."""
    tl = Timeline()
    tl._intervals.append(Interval(0, 0.0, 0.5, "app", "a"))
    tl._intervals.append(Interval(0, 0.75, 0.25, "app", "b"))  # ends at hi
    profile = tl.utilization_profile(buckets=4)
    assert profile == pytest.approx([1.0, 1.0, 0.0, 1.0])


def test_zero_duration_interval_at_span_end_not_dropped():
    """Regression: a zero-duration execution sitting exactly at ``hi``
    computed bucket/cell == count and fell off the grid entirely.  The PE
    whose only activity is that execution must still show a mark."""
    tl = Timeline()
    tl._intervals.append(Interval(0, 0.0, 1.0, "app", "work"))   # defines span
    tl._intervals.append(Interval(1, 1.0, 0.0, "svc", "tick"))   # at hi, PE 1
    # Profile: must index the last bucket (adds 0 width), not drop or crash.
    profile = tl.utilization_profile(buckets=5)
    assert len(profile) == 5
    # Render: PE 1's row must carry the mark in the final cell.
    lines = tl.render(width=10).splitlines()
    pe1 = next(line for line in lines if line.startswith("PE  1"))
    body = pe1.split("|")[1]
    assert body[-1] == "+", f"zero-duration boundary mark lost: {pe1!r}"


def _two_pe_timeline():
    tl = Timeline()
    tl._intervals.append(Interval(0, 0.0, 0.5, "app", "a"))
    tl._intervals.append(Interval(1, 0.75, 0.25, "svc", "b"))
    return tl


@pytest.mark.parametrize("call, field", [
    (lambda tl: tl.utilization_profile(buckets=0), "buckets"),   # ZeroDivisionError
    (lambda tl: tl.utilization_profile(buckets=-2), "buckets"),  # IndexError
    (lambda tl: tl.utilization_profile(buckets=2.5), "buckets"),
    (lambda tl: tl.render(width=0), "width"),                    # ZeroDivisionError
    (lambda tl: tl.render(width=-1), "width"),
], ids=["buckets-0", "buckets-neg", "buckets-float", "width-0", "width-neg"])
def test_bad_sizes_rejected(call, field):
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=field):
        call(_two_pe_timeline())


def test_smallest_sizes_keep_parent_answers():
    tl = _two_pe_timeline()
    assert tl.utilization_profile(buckets=1) == [0.375]
    assert tl.utilization_profile(buckets=2) == [0.5, 0.25]
    assert tl.render(width=1) == (
        "timeline 0.000..1000.000 ms\nPE  0 |#|\nPE  1 |+|")
