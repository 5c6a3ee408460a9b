"""Host-throughput reporter: the `_best_rate` pairing/degenerate fixes."""

import json
import time

import pytest

from repro.bench.perf import _best_rate


class _Clock:
    """Scripted replacement for time.perf_counter."""

    def __init__(self, values):
        self._values = list(values)

    def __call__(self):
        return self._values.pop(0)


def test_best_rate_pairs_ops_with_their_own_timing(monkeypatch):
    """A fast run with few ops must not borrow a slow run's op count.

    Run 1: 100 ops in 1.0 s (100/s).  Run 2: 5 ops in 0.1 s (50/s).  The
    old code paired the *last* ops (5) with the *best* time (0.1) — a rate
    of 50/s; worse pairings could fabricate rates no run achieved.  The
    answer is the best per-run rate: 100/s.
    """
    monkeypatch.setattr(time, "perf_counter", _Clock([0.0, 1.0, 1.0, 1.1]))
    ops = iter([100, 5])
    assert _best_rate(lambda: next(ops), repeats=2) == pytest.approx(100.0)


def test_best_rate_takes_max_rate(monkeypatch):
    monkeypatch.setattr(time, "perf_counter",
                        _Clock([0.0, 2.0, 2.0, 2.5, 2.5, 3.5]))
    ops = iter([10, 10, 10])
    # Rates: 5/s, 20/s, 10/s -> 20/s.
    assert _best_rate(lambda: next(ops), repeats=3) == pytest.approx(20.0)


def test_best_rate_zero_duration_guarded(monkeypatch):
    """Runs the clock cannot resolve yield 0.0, not inf (JSON-safe)."""
    monkeypatch.setattr(time, "perf_counter", _Clock([1.0, 1.0, 1.0, 1.0]))
    rate = _best_rate(lambda: 1000, repeats=2)
    assert rate == 0.0
    assert json.loads(json.dumps({"r": rate}))["r"] == 0.0


def test_best_rate_skips_only_degenerate_runs(monkeypatch):
    monkeypatch.setattr(time, "perf_counter",
                        _Clock([0.0, 0.0, 0.0, 0.5]))
    ops = iter([100, 100])
    # First run unresolvable, second gives 200/s.
    assert _best_rate(lambda: next(ops), repeats=2) == pytest.approx(200.0)


# ------------------------------------------------- host context & baselines
def test_record_includes_host_context(tmp_path):
    from repro.bench import perf

    path = str(tmp_path / "bench.json")
    entry = perf.record(path, "test-entry", metrics={"engine_events_per_s": 1.0})
    host = entry["host"]
    assert isinstance(host["cpu_count"], int) and host["cpu_count"] >= 1
    assert host["load_avg_1m"] is None or isinstance(host["load_avg_1m"], float)
    on_disk = json.loads(open(path).read())["entries"]
    assert on_disk[-1]["host"] == host


def test_host_context_without_getloadavg(monkeypatch):
    import os

    from repro.bench.perf import host_context

    monkeypatch.delattr(os, "getloadavg")
    ctx = host_context()
    assert ctx["load_avg_1m"] is None
    assert ctx["cpu_count"] == os.cpu_count()


def test_guard_baseline_skips_exp_wall_entries():
    from repro.bench.perf import _guard_baseline

    guarded = {"label": "hot-path", "metrics": {"engine_events_per_s": 9.9}}
    entries = [
        {"label": "older", "metrics": {"kernel_msgs_per_s": 1.0}},
        guarded,
        {"label": "wall", "metrics": {"exp_all_wall_s_serial": 12.0}},
        {"label": "wall-2", "metrics": {"exp_all_cache_hit_rate": 1.0}},
        # Historical batch-backend entries carry only *_batch_* names, none
        # of them guarded: they must not become the bar either.
        {"label": "batch", "host": {"backend": "batch"},
         "metrics": {"engine_batch_events_per_s": 300.0}},
    ]
    assert _guard_baseline(entries) is guarded


def test_guard_baseline_tolerates_malformed_entries():
    from repro.bench.perf import _guard_baseline

    assert _guard_baseline([]) is None
    assert _guard_baseline([{"label": "no-metrics"}]) is None
    assert _guard_baseline([{"metrics": {"exp_all_jobs": 4.0}}]) is None


def test_check_uses_last_guarded_entry(tmp_path, monkeypatch, capsys):
    """--check must not be disabled (or misled) by a trailing exp-wall
    entry or by pre-host-context entries missing fields."""
    from repro.bench import perf

    path = str(tmp_path / "bench.json")
    data = {"entries": [
        # Old-format entry: no "host", guarded metrics present.
        {"label": "seed", "timestamp": "t0", "python": "3",
         "metrics": {"engine_events_per_s": 100.0,
                     "kernel_msgs_per_s": 100.0,
                     "kernel_seeds_per_s": 100.0}},
        # Newest entry only has wall-clock metrics.
        {"label": "wall", "timestamp": "t1", "python": "3",
         "host": {"cpu_count": 1, "load_avg_1m": None},
         "metrics": {"exp_all_wall_s_serial": 9.0}},
    ]}
    with open(path, "w") as fh:
        json.dump(data, fh)
    monkeypatch.setattr(
        perf, "measure_throughput",
        lambda repeats=3: {"engine_events_per_s": 95.0,
                           "kernel_msgs_per_s": 95.0,
                           "kernel_seeds_per_s": 95.0})
    assert perf.check(path) is True
    out = capsys.readouterr().out
    assert "'seed'" in out

    monkeypatch.setattr(
        perf, "measure_throughput",
        lambda repeats=3: {"engine_events_per_s": 10.0,
                           "kernel_msgs_per_s": 95.0,
                           "kernel_seeds_per_s": 95.0})
    assert perf.check(path) is False
    assert "REGRESSION" in capsys.readouterr().out


def test_check_skips_metrics_missing_on_either_side(tmp_path, monkeypatch,
                                                    capsys):
    """A guarded metric is compared only when both sides measured it."""
    from repro.bench import perf

    path = str(tmp_path / "bench.json")
    data = {"entries": [
        {"label": "old-base", "timestamp": "t0", "python": "3",
         "host": {"cpu_count": 1, "load_avg_1m": None},
         "metrics": {"engine_events_per_s": 300.0,
                     "kernel_seeds_per_s": 300.0}},
    ]}
    with open(path, "w") as fh:
        json.dump(data, fh)
    monkeypatch.setattr(
        perf, "measure_throughput",
        lambda repeats=3: {"engine_events_per_s": 290.0,
                           "serving_requests_per_s": 1.0})
    assert perf.check(path) is True
    out = capsys.readouterr().out
    assert "'old-base'" in out
    assert "engine_events_per_s:" in out
    # Missing from the baseline / from the current pass: no comparison.
    assert "serving_requests_per_s:" not in out
    assert "kernel_seeds_per_s:" not in out


def test_measure_exp_wall_records_all_passes(tmp_path, monkeypatch):
    from repro.bench import perf

    metrics = perf.measure_exp_wall(scale="quick", jobs=2, exps=["t9"])
    assert metrics["exp_all_jobs"] == 2.0
    assert metrics["exp_all_wall_s_serial"] > 0
    assert metrics["exp_all_wall_s_jobs2"] > 0
    assert metrics["exp_all_wall_s_warm_cache"] > 0
    assert metrics["exp_all_cache_hit_rate"] == pytest.approx(1.0)
    # Warm-cache replay must be dramatically cheaper than executing.
    assert (metrics["exp_all_wall_s_warm_cache"]
            < metrics["exp_all_wall_s_serial"])
