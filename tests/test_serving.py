"""Serving workload + trace-derived latency percentiles (S-series core).

Covers the latency-percentile aggregation satellite: exact nearest-rank
percentiles on hand-computed samples, synthetic causal chains, empty and
one-request runs, and byte-identical S1 tables across ``--jobs`` sharding
and cache replay.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.serving import run_serving
from repro.bench.experiments import run_experiment
from repro.bench.parallel import SweepExecutor, use_executor
from repro.machine.presets import make_machine
from repro.metrics.latency import latency_summary, percentile, request_latencies
from repro.util.errors import ConfigurationError
from repro.workloads.arrivals import Bursty, Diurnal, Poisson, ServiceSpec


# ------------------------------------------------------------- percentile
def test_percentile_nearest_rank_hand_computed():
    values = [15.0, 20.0, 35.0, 40.0, 50.0]
    # ceil(q/100 * 5)-th smallest, 1-indexed.
    assert percentile(values, 5) == 15.0
    assert percentile(values, 30) == 20.0
    assert percentile(values, 40) == 20.0
    assert percentile(values, 50) == 35.0
    assert percentile(values, 95) == 50.0
    assert percentile(values, 100) == 50.0
    assert percentile(values, 0) == 15.0


def test_percentile_unsorted_input_and_single_sample():
    assert percentile([9.0, 1.0, 5.0], 50) == 5.0
    assert percentile([42.0], 1) == 42.0
    assert percentile([42.0], 99) == 42.0


def test_percentile_ten_values():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 99) == 10


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ConfigurationError):
        percentile([], 50)
    with pytest.raises(ConfigurationError):
        percentile([1.0], 101)
    with pytest.raises(ConfigurationError):
        percentile([1.0], -1)


# ------------------------------------------------- synthetic causal chains
def _ev(eid, kind, t, parent=None, name=None, dur=None):
    return {"eid": eid, "kind": kind, "t": t, "pe": 0, "uid": None,
            "parent": parent, "name": name, "dur": dur, "info": None}


def test_single_stage_chain_hand_computed():
    events = [
        _ev(0, "exec_begin", 0.0, name="Main"),
        _ev(1, "send", 1.0, parent=0, name="__init__"),
        _ev(2, "deliver", 1.5, parent=1),
        _ev(3, "exec_begin", 2.0, parent=2, name="Request"),
        _ev(4, "exec_end", 2.75, parent=3, name="Request", dur=0.75),
        _ev(5, "send", 2.75, parent=3, name="done"),
    ]
    recs = request_latencies(events)
    assert len(recs) == 1
    r = recs[0]
    assert r["kind"] == "done"
    assert r["inject_t"] == 1.0
    assert r["complete_t"] == 2.75
    assert r["latency"] == pytest.approx(1.75)
    assert r["queue_wait"] == pytest.approx(0.5)
    assert r["service"] == pytest.approx(0.75)
    assert r["stages"] == 1


def test_chain_crosses_balancer_forwarding_leg():
    # seed forwarded once: send -> deliver -> lb -> send -> deliver -> exec.
    events = [
        _ev(0, "exec_begin", 0.0, name="Main"),
        _ev(1, "send", 1.0, parent=0, name="__init__"),
        _ev(2, "deliver", 1.2, parent=1),
        _ev(3, "lb", 1.2, parent=2, name="forward"),
        _ev(4, "send", 1.2, parent=3, name="__init__"),
        _ev(5, "deliver", 1.6, parent=4),
        _ev(6, "exec_begin", 1.9, parent=5, name="Request"),
        _ev(7, "exec_end", 2.4, parent=6, name="Request", dur=0.5),
        _ev(8, "send", 2.4, parent=6, name="done"),
    ]
    recs = request_latencies(events)
    assert len(recs) == 1
    r = recs[0]
    # Injection is the ORIGINAL send, not the forwarding leg's resend.
    assert r["inject_t"] == 1.0
    assert r["latency"] == pytest.approx(1.4)
    assert r["queue_wait"] == pytest.approx(0.3)  # final-leg wait only


def test_multi_stage_pipeline_accumulates():
    events = [
        _ev(0, "exec_begin", 0.0, name="Main"),
        _ev(1, "send", 1.0, parent=0, name="__init__"),
        _ev(2, "deliver", 1.1, parent=1),
        _ev(3, "exec_begin", 1.3, parent=2, name="Request"),
        _ev(4, "exec_end", 1.8, parent=3, name="Request", dur=0.5),
        _ev(5, "send", 1.8, parent=3, name="__init__"),
        _ev(6, "deliver", 2.0, parent=5),
        _ev(7, "exec_begin", 2.4, parent=6, name="Request"),
        _ev(8, "exec_end", 3.0, parent=7, name="Request", dur=0.6),
        _ev(9, "send", 3.0, parent=7, name="done"),
    ]
    recs = request_latencies(events)
    assert len(recs) == 1
    r = recs[0]
    assert r["stages"] == 2
    assert r["inject_t"] == 1.0
    assert r["complete_t"] == 3.0
    assert r["latency"] == pytest.approx(2.0)
    assert r["queue_wait"] == pytest.approx((1.3 - 1.1) + (2.4 - 2.0))
    assert r["service"] == pytest.approx(1.1)


def test_shed_requests_classified_and_excluded_from_percentiles():
    events = [
        _ev(0, "exec_begin", 0.0, name="Main"),
        _ev(1, "send", 1.0, parent=0, name="__init__"),
        _ev(2, "deliver", 1.1, parent=1),
        _ev(3, "exec_begin", 1.1, parent=2, name="Request"),
        _ev(4, "exec_end", 1.15, parent=3, name="Request", dur=0.05),
        _ev(5, "send", 1.15, parent=3, name="shed"),
        _ev(6, "send", 2.0, parent=0, name="__init__"),
        _ev(7, "deliver", 2.1, parent=6),
        _ev(8, "exec_begin", 2.1, parent=7, name="Request"),
        _ev(9, "exec_end", 3.1, parent=8, name="Request", dur=1.0),
        _ev(10, "send", 3.1, parent=8, name="done"),
    ]
    summary = latency_summary(events)
    assert summary["requests"] == 2
    assert summary["completed"] == 1
    assert summary["shed"] == 1
    # Percentiles cover served requests only — the fast shed must not
    # drag the latency distribution down.
    assert summary["p50"] == pytest.approx(1.1)
    assert summary["p99"] == pytest.approx(1.1)


def test_empty_log_summary_is_visibly_empty():
    summary = latency_summary([])
    assert summary["requests"] == 0
    assert summary["completed"] == 0
    assert summary["p50"] is None
    assert summary["p99"] is None
    assert summary["mean"] is None


# ------------------------------------------------------------- end-to-end
def test_one_request_run_exact_latency():
    # Ideal machine: zero transit/overhead, work unit 1 us.  A single
    # fixed-demand request's latency is exactly its service time.
    ans, res = run_serving(
        make_machine("ideal", 4),
        arrivals=Poisson(rate=1000.0, count=1),
        service=ServiceSpec("fixed", 400.0),
        seed=0,
    )
    assert ans["offered"] == ans["completed"] == 1
    assert ans["shed"] == 0
    assert ans["p50"] == ans["p95"] == ans["p99"] == ans["mean"] == ans["max"]
    # latency = (inject + service) - inject: exact up to one float ulp.
    assert ans["p50"] == pytest.approx(400.0e-6, rel=1e-12)
    assert ans["mean_queue_wait"] == 0.0
    assert ans["mean_service"] == pytest.approx(400.0e-6, rel=1e-12)


def test_empty_stream_run():
    ans, res = run_serving(
        make_machine("ideal", 4),
        arrivals=Poisson(rate=1000.0, count=0),
        seed=0,
    )
    assert ans["offered"] == ans["completed"] == ans["shed"] == 0
    assert ans["p50"] is None and ans["mean"] is None


def test_multi_hop_requests_traverse_stages():
    ans, res = run_serving(
        make_machine("ncube2", 8),
        arrivals=Poisson(rate=1500.0, count=60),
        hops=3,
        seed=4,
    )
    assert ans["completed"] == 60
    kernel = res.kernel
    recs = request_latencies(kernel.events.as_records())
    assert all(r["stages"] == 3 for r in recs)


def test_admission_bound_sheds_under_overload():
    ans, res = run_serving(
        make_machine("ncube2", 4),
        arrivals=Poisson(rate=20000.0, count=200),
        shed_above=3,
        seed=1,
    )
    assert ans["shed"] > 0
    assert ans["completed"] + ans["shed"] == 200
    # Bounded queues bound the tail: served latency stays finite and the
    # analyzer still accounts every request.
    assert ans["p99"] is not None


@pytest.mark.parametrize("balancer", ["random", "roundrobin", "central",
                                      "acwn", "token"])
def test_every_balancer_serves_the_stream(balancer):
    ans, _ = run_serving(
        make_machine("ncube2", 8),
        arrivals=Poisson(rate=3000.0, count=80),
        balancer=balancer,
        seed=2,
    )
    assert ans["completed"] == 80


# --------------------------------------------------------- input validation
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, kwargs", [
    # Measured at the parent: NaN / inf rates ran and reported percentiles,
    # a NaN / inf mean finished at time nan / inf, a NaN bound never shed,
    # -1 shed everything, the rest died mid-run as bare TypeErrors.
    ("rate", dict(arrivals=Poisson(rate=NAN, count=5))),
    ("rate", dict(arrivals=Poisson(rate=INF, count=5))),
    ("rate", dict(arrivals=Poisson(rate="2000", count=5))),
    ("count", dict(arrivals=Poisson(rate=2000.0, count=2.5))),
    ("start", dict(arrivals=Poisson(rate=2000.0, count=5, start=NAN))),
    ("mean", dict(service=ServiceSpec("exp", NAN))),
    ("mean", dict(service=ServiceSpec("exp", INF))),
    ("shape", dict(service=ServiceSpec("pareto", 400.0, NAN))),
    ("shape", dict(service=ServiceSpec("lognormal", 400.0, INF))),
    ("shed_above", dict(shed_above=NAN)),
    ("shed_above", dict(shed_above=-1)),
    ("shed_above", dict(shed_above="x")),
    ("hops", dict(hops=2.5)),
    ("hops", dict(hops=0)),
    ("rate_low", dict(arrivals=Bursty(rate_low=NAN, rate_high=9e3, count=5))),
    ("rate_high", dict(arrivals=Bursty(rate_low=1e3, rate_high=INF, count=5))),
    ("dwell_high", dict(arrivals=Bursty(1e3, 9e3, 5, dwell_high=NAN))),
    ("count", dict(arrivals=Bursty(1e3, 9e3, count=2.5))),
    ("rate_mean", dict(arrivals=Diurnal(rate_mean=NAN, count=5))),
    ("amplitude", dict(arrivals=Diurnal(2e3, 5, amplitude=NAN))),
    ("period", dict(arrivals=Diurnal(2e3, 5, period=INF))),
    ("count", dict(arrivals=Diurnal(2e3, count="5"))),
])
def test_bad_serving_input_fails_early_and_names_the_field(field, kwargs):
    with pytest.raises(ConfigurationError, match=field):
        run_serving(make_machine("ncube2", 4), **kwargs)


def test_boundary_serving_inputs_still_run():
    summary, _ = run_serving(make_machine("ncube2", 4),
                             Poisson(rate=9000.0, count=40), shed_above=0)
    assert summary["shed"] > 0 and summary["completed"] + summary["shed"] == 40
    summary, _ = run_serving(make_machine("ncube2", 4),
                             Poisson(rate=2000.0, count=True), hops=True,
                             shed_above=2.5)
    assert summary["offered"] == 1


# --------------------------------------------------- S1 table byte-identity
def _s1(**executor_kwargs):
    with SweepExecutor(**executor_kwargs) as ex, use_executor(ex):
        return run_experiment("s1", scale="quick")


def _payload(result):
    return (result.text, json.dumps(result.data, sort_keys=True))


def test_s1_jobs4_byte_identical_to_serial():
    serial = _s1(jobs=1)
    parallel = _s1(jobs=4)
    assert _payload(parallel) == _payload(serial)


def test_s1_cache_replay_byte_identical(tmp_path):
    from repro.bench.cache import ResultCache

    cache = ResultCache(str(tmp_path), fingerprint="pinned-s1")
    with SweepExecutor(jobs=1, cache=cache) as ex, use_executor(ex):
        cold = run_experiment("s1", scale="quick")
    assert cache.stores > 0
    with SweepExecutor(jobs=1, cache=ResultCache(
            str(tmp_path), fingerprint="pinned-s1")) as ex, use_executor(ex):
        warm = run_experiment("s1", scale="quick")
    assert _payload(warm) == _payload(cold)


def test_s1_shows_saturation_knee():
    res = _s1(jobs=1)
    series = res.data["series"]
    by_util = {round(s["util"], 2): s for s in series}
    # Tail latency rises monotonically with utilization...
    p99 = [s["p99"] for s in series]
    assert p99 == sorted(p99)
    # ...and super-linearly past the knee: the step from 90% to 105% load
    # costs more absolute p99 than the whole climb from 40% to 70%.
    knee_growth = by_util[1.05]["p99"] - by_util[0.9]["p99"]
    pre_knee_growth = by_util[0.7]["p99"] - by_util[0.4]["p99"]
    assert knee_growth > pre_knee_growth
