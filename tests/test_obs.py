"""Tests for the telemetry plane (:mod:`repro.obs`).

Four contracts, in the order the module docstring states them:

1. **Primitives** — the log-bucketed histogram: bucket math, nearest-rank
   quantiles (within one bucket of the exact trace-walked percentile),
   record round-trips.
2. **Invisible when on** — a telemetry-on run reproduces the telemetry-off
   run's answer, virtual time, and event count bit for bit, including
   against the golden-trace fixtures.
3. **Online serving latency** — the in-app histogram's p50/p95/p99 land in
   (or adjacent to) the bucket of the exact trace-walked percentile, and
   the digest survives with tracing disabled entirely.
4. **Plumbing** — exporters round-trip, run health reads the snapshot
   stream, and the bench layer threads telemetry through descriptors,
   cache keys (only when enabled), and sweep-executor output files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from repro.core.chare import Chare
from repro.core.kernel import Kernel
from repro.machine.presets import make_machine
from repro.metrics import sample_metrics
from repro.obs import (
    Histogram,
    RunHealth,
    Telemetry,
    to_jsonl,
    to_prometheus,
)
from repro.trace.events import EventLog, RecorderPair
from repro.util.errors import ConfigurationError
from tests.conftest import read_metrics_jsonl


class _NoopMain(Chare):
    """Minimal main chare for live-plane exporter smoke."""

    def __init__(self):
        self.exit(0)


# ================================================================ primitives
class TestHistogram:
    def test_bucket_contains_value(self):
        h = Histogram()
        rng = random.Random(7)
        for _ in range(200):
            v = math.exp(rng.uniform(-20, 20))
            lo, hi = h.bucket_bounds(h.bucket_index(v))
            assert lo <= v < hi

    def test_relative_width_bound(self):
        h = Histogram(subbuckets=32)
        for v in (1e-9, 3.7e-4, 1.0, 42.0, 9e12):
            lo, hi = h.bucket_bounds(h.bucket_index(v))
            assert (hi - lo) / lo <= 1.0 / 32 + 1e-12

    def test_observe_accounting(self):
        h = Histogram()
        for v in (0.5, 1.5, 0.0, -3.0, 2.5):
            h.observe(v)
        assert h.count == 5
        assert h.zero == 2  # 0.0 and -3.0
        assert h.total == pytest.approx(1.5)
        assert h.vmin == -3.0 and h.vmax == 2.5

    def test_empty_histogram(self):
        h = Histogram()
        assert h.quantile(50) is None
        assert h.mean is None
        assert h.vmin is None and h.vmax is None

    def test_quantile_bounds_checked(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ConfigurationError):
            h.quantile(101)
        with pytest.raises(ConfigurationError):
            h.quantile(-0.1)

    def test_zero_dominated_quantile(self):
        h = Histogram()
        for _ in range(9):
            h.observe(0.0)
        h.observe(5.0)
        assert h.quantile(50) == 0.0
        assert h.quantile(99) > 0.0

    def test_quantile_within_one_bucket_of_exact(self):
        """The S6 contract in miniature, against the exact nearest-rank."""
        def percentile(values, q):
            ordered = sorted(values)
            return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]

        rng = random.Random(13)
        samples = [rng.expovariate(1.0) * 1e-3 for _ in range(5000)]
        h = Histogram()
        for v in samples:
            h.observe(v)
        for q in (50.0, 90.0, 95.0, 99.0, 99.9):
            exact = percentile(samples, q)
            est = h.quantile(q)
            assert abs(h.bucket_index(exact) - h.bucket_index(est)) <= 1

    def test_record_round_trip(self):
        h = Histogram(subbuckets=16)
        for v in (0.0, 1e-6, 0.25, 3.9, 3.9, 1e4):
            h.observe(v)
        rec = h.as_record()
        json.dumps(rec)  # JSON-safe
        h2 = Histogram.from_record(rec)
        assert h2.as_record() == rec
        for q in (1.0, 50.0, 99.0):
            assert h2.quantile(q) == h.quantile(q)

    def test_empty_record_round_trip(self):
        rec = Histogram().as_record()
        h = Histogram.from_record(rec)
        assert h.count == 0 and h.vmin is None and h.quantile(50) is None

    def test_subbuckets_validated(self):
        with pytest.raises(ConfigurationError):
            Histogram(subbuckets=0)


@pytest.mark.parametrize("bad, field", [
    # 2.5 gave float bucket keys {2.5, 6.0} over 1.0 and 3.0 and a median
    # of 1.2; True was one sub-bucket; "32" died in a bare TypeError.
    (lambda: Histogram(2.5), "subbuckets"),
    (lambda: Histogram(True), "subbuckets"),
    (lambda: Histogram("32"), "subbuckets"),
    (lambda: Histogram.from_record(dict(Histogram().as_record(),
                                        subbuckets="32")), "subbuckets"),
    # A bare ValueError from int(NaN) in bucket_of.
    (lambda: sample_metrics([{"eid": 0, "kind": "send", "t": 0.0, "pe": 0}],
                            t_end=float("nan")), "t_end"),
], ids=["float", "bool", "str", "record-str", "t_end-nan"])
def test_bucket_geometry_input_names_the_field(bad, field):
    with pytest.raises(ConfigurationError, match=field):
        bad()


# ===================================================== invisible-when-on
def _fib_fingerprint(telemetry=None, **kwargs):
    from repro.apps.fib import run_fib

    answer, result = run_fib(make_machine("ipsc2", 8),
                             n=12, threshold=6, balancer="random", seed=2,
                             telemetry=telemetry, **kwargs)
    return answer, float(result.time).hex(), result.events


class TestNonPerturbation:
    def test_identical_run_with_telemetry(self):
        base = _fib_fingerprint()
        tel = Telemetry(interval=1e-3)
        assert _fib_fingerprint(telemetry=tel) == base
        assert tel.snapshots, "periodic snapshots never flushed"

    @pytest.mark.parametrize("case_id", [
        "queens-ipsc2-central-fifo", "fib-ideal-random-fifo",
        "tree-ncube2-acwn-fifo",
    ])
    def test_golden_fixture_identity_with_telemetry(self, case_id):
        # Telemetry-on runs must reproduce the golden fixtures captured
        # with no telemetry plane at all — the strongest inertness claim.
        from tests.test_golden_trace import (
            CASES,
            _fingerprint,
            _load_fixtures,
            _run_case,
        )

        runner, spec = next((r, s) for cid, r, s in CASES if cid == case_id)
        answer, result = _run_case(
            runner, spec,
            telemetry=Telemetry(interval=1e-4),
        )
        assert _fingerprint(answer, result) == _load_fixtures()[case_id]

    def test_exec_counters_match_snapshot_totals(self):
        from repro.apps.fib import run_fib

        tel = Telemetry()
        run_fib(make_machine("ipsc2", 8), n=12, threshold=6, seed=2,
                telemetry=tel)
        execs = sum(tel.exec_counts.values())
        final = tel.snapshots[-1]
        assert final["label"] == "final"
        assert execs == final["executions"]
        assert tel.exec_hist.count == execs

    def test_bind_is_once_only(self):
        tel = Telemetry()
        Kernel(make_machine("ideal", 1), telemetry=tel)
        with pytest.raises(ConfigurationError):
            Kernel(make_machine("ideal", 1), telemetry=tel)

    def test_snapshot_before_bind_raises(self):
        with pytest.raises(ConfigurationError):
            Telemetry().snapshot()

    def test_kernel_rejects_config_and_true(self):
        # Telemetry(...) is the one spelling; True and a config object
        # used to build a default plane behind the caller's back.
        from types import SimpleNamespace

        for bad in (True, 42, 0.5, SimpleNamespace(interval=0.5)):
            with pytest.raises(ConfigurationError, match="telemetry"):
                Kernel(make_machine("ideal", 1), telemetry=bad)
        k = Kernel(make_machine("ideal", 1), telemetry=Telemetry(interval=0.5))
        assert k.telemetry.interval == 0.5

    def test_trace_events_is_an_attach_path_too(self):
        # A Telemetry given as trace_events used to run unbound: no final
        # snapshot, and serving_inject failed on its missing kernel.
        from repro.apps.fib import run_fib

        tel = Telemetry()
        _, result = run_fib(make_machine("ipsc2", 8), n=14, threshold=4,
                            seed=0, trace_events=tel)
        assert result.kernel.telemetry is tel and result.kernel.events is None
        assert [row["label"] for row in tel.snapshots] == ["final"]
        assert sum(tel.exec_counts.values()) == tel.snapshots[-1]["executions"]
        summary, _ = _serve(trace_events=Telemetry())
        assert summary["online"]["count"] == summary["completed"]

    def test_a_recorder_pair_as_trace_events_binds_its_telemetry(self):
        # The pair used to be taken for a duck-typed recorder: its
        # telemetry was never bound or run-ended, so a run took no
        # snapshot and left kernel.telemetry None.
        from repro.apps.fib import run_fib

        log, tel = EventLog(), Telemetry()
        _, result = run_fib(make_machine("ipsc2", 8), n=14, threshold=4,
                            seed=0, trace_events=RecorderPair(log, tel))
        kernel = result.kernel
        assert kernel.telemetry is tel and kernel.events is log
        assert [row["label"] for row in tel.snapshots] == ["final"]
        assert tel.snapshots[-1]["executions"] == 939
        assert sum(tel.exec_counts.values()) == 939
        assert len(log.rows) > 0
        with pytest.raises(ConfigurationError, match="telemetry"):
            Kernel(make_machine("ideal", 1),
                   trace_events=RecorderPair(EventLog(), Telemetry()),
                   telemetry=Telemetry())

    def test_one_plane_in_both_keywords_is_refused(self):
        # It used to be heard twice: every execution counted double.
        tel = Telemetry()
        with pytest.raises(ConfigurationError, match="telemetry"):
            Kernel(make_machine("ideal", 1), trace_events=tel, telemetry=tel)

    @pytest.mark.parametrize("interval",
                             [float("nan"), float("inf"), -1e-3])
    def test_config_rejects_bad_interval(self, interval):
        with pytest.raises(ConfigurationError, match="interval"):
            Telemetry(interval=interval)

    @pytest.mark.parametrize("field, value", [
        ("interval", "1"),         # used to be a bare TypeError
    ], ids=["interval-str"])
    def test_config_rejects_values_its_exporters_cannot_take(self, field,
                                                              value):
        with pytest.raises(ConfigurationError, match=field):
            Telemetry(**{field: value})

    def test_smallest_config_values_export(self, monkeypatch):
        from repro.apps.fib import run_fib
        from repro.obs import telemetry

        monkeypatch.setattr(telemetry, "MAX_SNAPSHOTS", 1)
        tel = Telemetry(interval=1e-3)
        run_fib(make_machine("ipsc2", 8), n=12, threshold=6, seed=2,
                telemetry=tel)
        assert len(tel.snapshots) == 2 and tel.snapshots_dropped > 0
        assert "exec_duration_seconds_bucket" in to_prometheus(tel.payload())
        assert all(type(i) is int for i in tel.exec_hist.buckets)

    def test_max_snapshots_counts_overflow(self, monkeypatch):
        from repro.apps.fib import run_fib
        from repro.obs import telemetry

        monkeypatch.setattr(telemetry, "MAX_SNAPSHOTS", 4)
        tel = Telemetry(interval=1e-6)
        run_fib(make_machine("ipsc2", 8), n=12, threshold=6, seed=2,
                telemetry=tel)
        # 4 periodic + the final scrape (on_run_end bypasses the cap).
        assert len(tel.snapshots) == 5
        assert tel.snapshots_dropped > 0
        assert tel.payload()["meta"]["snapshots_dropped"] == \
            tel.snapshots_dropped


# ======================================================== serving online
def _serve(pes=16, count=200, **kwargs):
    from repro.apps.serving import run_serving
    from repro.workloads.arrivals import Poisson

    return run_serving(
        make_machine("ipsc2", pes),
        arrivals=Poisson(rate=2000.0, count=count), hops=2, seed=3,
        balancer="central", **kwargs)


class TestServingOnline:
    def test_head_to_head_within_one_bucket(self):
        tel = Telemetry()
        summary, result = _serve(telemetry=tel)
        online = summary["online"]
        assert online["count"] == summary["completed"]
        h = tel.latency["done"]
        for q in ("p50", "p95", "p99"):
            exact, est = summary[q], online[q]
            assert abs(h.bucket_index(exact) - h.bucket_index(est)) <= 1, q
        # Pre-bucketing, the online observations are bit-exact: identical
        # sum/min/max/mean to the trace walk.
        assert online["min"] == summary["min"]
        assert online["max"] == summary["max"]
        assert online["mean"] == pytest.approx(summary["mean"], rel=1e-12)

    def test_trace_free_digest(self):
        summary, result = _serve(telemetry=Telemetry(), trace_events=None)
        assert result.kernel.events is None
        assert summary["p50"] is None  # no log, no trace walk
        online = summary["online"]
        assert online["count"] == summary["completed"] == summary["offered"]
        assert online["p99"] > online["p50"] > 0.0

    def test_shed_requests_counted(self):
        tel = Telemetry()
        summary, _ = _serve(pes=2, count=120, shed_above=2, telemetry=tel)
        assert summary["shed"] > 0
        assert summary["online"]["shed"] == summary["shed"]
        assert summary["online"]["count"] == summary["completed"]

    def test_telemetry_does_not_perturb_serving(self):
        base, base_res = _serve()
        tel_sum, tel_res = _serve(telemetry=Telemetry())
        tel_sum.pop("online")
        assert tel_sum == base
        assert (float(tel_res.time).hex(), tel_res.events) == \
            (float(base_res.time).hex(), base_res.events)


# ============================================================= exporters
def _sample_payload():
    from repro.apps.fib import run_fib

    tel = Telemetry(interval=1e-3)
    run_fib(make_machine("ipsc2", 8), n=12, threshold=6, seed=2,
            telemetry=tel)
    return tel.payload(meta={"app": "fib"})


class TestSnapshotTiming:
    """Telemetry rides the kernel's recorder slot: a periodic snapshot is
    taken at the crossing execution's ``exec_end``, after its outbox
    flush.  Counts and the final scrape are those of the interval-hook
    plane it replaced."""

    def test_final_snapshot_and_series_equal_the_execution_hook(self):
        payload = _sample_payload()
        snaps = payload["snapshots"]
        final = {k: v for k, v in snaps[-1].items() if k != "wall"}
        assert len(snaps) == 7
        assert final == {
            "t": 0.006266919999999999, "vtime": 0.006266919999999999,
            "events": 285, "executions": 143, "msgs_executed": 67,
            "seeds_executed": 68, "system_executed": 8, "msgs_sent": 142,
            "bytes_sent": 7817, "in_flight": 0, "queued": 0, "busy_pes": 1,
            "touched_pes": 8, "qd_waves": 0, "qd_detected_at": None,
            "label": "final", "truncated": False,
        }
        blob = json.dumps(payload["series"], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == "c0c924ce8b2986a3"

    def test_periodic_snapshots_include_the_crossing_sends(self):
        snaps = _sample_payload()["snapshots"]
        assert [(s["msgs_sent"], s["in_flight"], s["bytes_sent"])
                for s in snaps] == [
            (23, 8, 1593), (72, 25, 4433), (114, 16, 6547), (130, 3, 7289),
            (139, 2, 7685), (142, 1, 7817), (142, 0, 7817)]


class TestExporters:
    def test_jsonl_round_trip(self):
        payload = _sample_payload()
        assert read_metrics_jsonl(to_jsonl(payload)) == payload

    def test_prometheus_shape(self):
        text = to_prometheus(_sample_payload())
        lines = text.splitlines()
        assert "# TYPE repro_exec_total counter" in lines
        assert "# TYPE repro_exec_duration_seconds histogram" in lines
        # Cumulative buckets end at le="+Inf" == _count.
        bucket_counts = [
            int(ln.rsplit(" ", 1)[1]) for ln in lines
            if ln.startswith('repro_exec_duration_seconds_bucket')
        ]
        assert bucket_counts == sorted(bucket_counts)
        inf_line = next(ln for ln in lines if 'le="+Inf"' in ln)
        count_line = next(
            ln for ln in lines
            if ln.startswith("repro_exec_duration_seconds_count"))
        assert inf_line.rsplit(" ", 1)[1] == count_line.rsplit(" ", 1)[1]
        # Label values are double-quoted per the exposition format.
        assert 'kind="app"' in text

    def test_exporters_accept_live_telemetry(self):
        tel = Telemetry()
        Kernel(make_machine("ideal", 1), telemetry=tel).run(_NoopMain)
        assert read_metrics_jsonl(to_jsonl(tel))["meta"]["num_pes"] == 1
        assert to_prometheus(tel).startswith("# TYPE")


def _s6_sparse_arm():
    """S6's quick-scale scale arm: telemetry only, P = 10^4, sparse."""
    from repro.bench.harness import describe
    from repro.bench.serving import SERVICE
    from repro.workloads.arrivals import Poisson

    p = make_machine("cluster", 1_000).params
    cost = SERVICE.mean * p.work_unit_time + p.sched_overhead + p.recv_overhead
    rate = 0.3 * 1_000 / cost
    return describe("serving", "cluster", 10_000, metrics=250 / rate / 8.0,
                    trace_events=None, sparse=True, balancer="central",
                    service=SERVICE, arrivals=Poisson(rate=rate, count=250))


def _pinned_descriptor(name):
    from repro.bench.harness import describe
    from repro.bench.serving import MACHINE, SERVICE, _rate
    from repro.faults import FaultConfig
    from repro.workloads.arrivals import Poisson

    if name == "s1-quick":
        return describe("serving", MACHINE, 8, balancer="central",
                        arrivals=Poisson(rate=_rate(0.9, 8), count=400),
                        service=SERVICE, metrics=0.005)
    if name == "s6-sparse":
        return _s6_sparse_arm()
    if name == "queens-faults":
        return describe("queens", "ncube2", 8, metrics=1e-4,
                        faults=FaultConfig(drop_prob=0.05, dup_prob=0.02))
    return describe("fib", "ipsc2", 8, metrics=0.0)


class TestPinnedPayloads:
    """The exported telemetry of four runs, byte for byte: the JSONL stream
    (host ``wall`` seconds removed from each snapshot) and the Prometheus
    text.  Pinned on the labeled-registry plane; the fixed-field plane
    that replaced it renders the same bytes."""

    @pytest.mark.parametrize("name, jsonl_digest, prom_digest", [
        ("s1-quick", "b375ab94c01236051f1563193dbc3e95",
         "1d1593bce968c5d24785f3c68127b25a"),
        ("s6-sparse", "ae7b79486f329345ce2b0d03e8297447",
         "3f984094db1ed109bcc49010556dd8f1"),
        ("queens-faults", "17d7827df81279defe782cccfef6352c",
         "ef55d79066c6d402ab0c6adcf9fb0f19"),
        ("fib", "d4b55b43360296539a920aebaeb239cd",
         "c7c3af73e7a9c73bb77166883eb2e26e"),
    ])
    def test_exports_are_byte_identical(self, name, jsonl_digest,
                                        prom_digest):
        from repro.bench.harness import run_descriptor

        payload = run_descriptor(_pinned_descriptor(name)).telemetry
        payload = dict(payload, snapshots=[
            {k: v for k, v in snap.items() if k != "wall"}
            for snap in payload["snapshots"]])

        def digest(text):
            return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

        assert (digest(to_jsonl(payload)), digest(to_prometheus(payload))) \
            == (jsonl_digest, prom_digest)

    def test_series_order_is_name_then_label_repr(self):
        from repro.bench.harness import describe, run_descriptor

        series = run_descriptor(
            describe("queens", "ncube2", 16, metrics=0.0)).telemetry["series"]
        names = [rec["name"] for rec in series]
        assert names == sorted(names)
        pes = [rec["labels"]["pe"] for rec in series
               if rec["name"] == "pe_busy_seconds"]
        assert pes == sorted(range(16), key=repr) != sorted(pes)
        assert {tuple(rec["labels"]) for rec in series
                if rec["name"] == "exec_total"} == {("kind", "name")}


# ================================================================= health
def _snap(t, events, wall, in_flight=0, label=""):
    row = {"t": t, "vtime": t, "wall": wall, "events": events,
           "in_flight": in_flight, "busy_pes": 1, "touched_pes": 4,
           "qd_waves": 0, "qd_detected_at": None}
    if label:
        row["label"] = label
    return row


class TestRunHealth:
    def test_no_data(self):
        assert RunHealth([]).report()["status"] == "no-data"
        assert "no snapshots" in RunHealth([]).format()

    def test_running_rates(self):
        h = RunHealth([_snap(1.0, 100, 0.5), _snap(2.0, 300, 1.0)])
        r = h.report()
        assert r["status"] == "running"
        assert r["events_per_s"] == pytest.approx(400.0)
        assert r["vtime_rate"] == pytest.approx(2.0)
        assert h.report()["status"] != "stalled"

    def test_stall_detected(self):
        h = RunHealth([_snap(1.0, 100, 0.5, in_flight=3),
                       _snap(1.0, 100, 5.0, in_flight=3)])
        r = h.report()
        assert r["status"] == "stalled" and r["stalled"]
        assert h.report()["status"] == "stalled"
        assert "stalled" in h.format()

    def test_finished_run_is_final_not_stalled(self):
        h = RunHealth([_snap(1.0, 100, 0.5),
                       _snap(1.0, 100, 1.0, label="final")])
        assert h.report()["status"] == "final"
        assert h.report()["status"] != "stalled"

    def test_reads_live_plane_and_payload(self):
        payload = _sample_payload()
        live = RunHealth(payload)
        assert live.report()["status"] == "final"
        assert RunHealth(payload["snapshots"]).report() == live.report()


# ============================================================ bench layer
def np_float(value):
    import numpy

    return numpy.float64(value)


def _described(metrics):
    """The cache key of a fib run described with ``metrics``."""
    from repro.bench.harness import describe

    return describe("fib", "ipsc2", 8, metrics=metrics).key()


def _stamped(interval):
    """The interval the bench CLI stamps onto a descriptor stating none."""
    from repro.bench.harness import describe, observation, observed

    desc = observed(describe("fib", "ipsc2", 8), observation(metrics=interval))
    return dict(desc.params)["metrics"]


def _observed(value):
    h = Histogram()
    h.observe(value)
    return h.as_record()["buckets"]


class TestBenchTelemetry:
    def test_describe_default_has_no_metrics_param(self):
        # Historical "run-v1" cache keys must not move when telemetry is
        # off — the same guarantee the tracing knob gives.
        from repro.bench.harness import describe

        desc = describe("fib", "ipsc2", 8)
        assert "metrics" not in dict(desc.params)
        with_metrics = describe("fib", "ipsc2", 8, metrics=0.0)
        assert dict(with_metrics.params)["metrics"] == 0.0
        assert desc.key() != with_metrics.key()

    def test_stamped_interval_fills_only_unset_descriptors(self):
        from repro.bench.harness import describe, observation, observed
        from repro.bench.parallel import SweepExecutor

        plain = describe("fib", "ipsc2", 8)
        own = describe("fib", "ipsc2", 8, metrics=0.0)
        stamp = observation(metrics=2e-3)
        assert observed(plain, stamp) == describe("fib", "ipsc2", 8,
                                                  metrics=2e-3)
        assert observed(own, stamp) is own
        with SweepExecutor(jobs=1) as ex:
            rows = ex.run_many([observed(plain, stamp), own])
        assert [row.telemetry["meta"]["interval"] for row in rows] == [
            2e-3, 0.0]
        assert "metrics" not in dict(plain.params)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1.0"])
    @pytest.mark.parametrize("entry", ["describe", "stamp", "cli"])
    def test_bad_interval_fails_at_the_call_naming_the_field(
            self, entry, value, capsys):
        # Not later, inside the run's Telemetry: by then the value is
        # in a descriptor and its cache key, possibly in a pool worker.
        from repro.bench.__main__ import main
        from repro.bench.harness import describe, observation

        if entry == "describe":
            with pytest.raises(ConfigurationError, match="metrics"):
                describe("fib", "ipsc2", 8, metrics=float(value))
        elif entry == "stamp":
            with pytest.raises(ConfigurationError, match="metrics"):
                observation(metrics=float(value))
        else:
            with pytest.raises(SystemExit) as exit_info:
                main(["--exp", "t9", "--scale", "quick", "--no-cache",
                      f"--metrics-interval={value}"])
            assert exit_info.value.code == 2
            assert "--metrics-interval" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, field, good, answer", [
        # describe(metrics=True) was a 1-second interval sharing the key of
        # metrics=1.0; a string was parsed.
        (lambda: _described(True), "metrics",
         lambda: _described(1), "ddf8be22b923c6ac2cebb22f92f6e35f"),
        (lambda: _described("0.5"), "metrics",
         lambda: _described(0.5), "58c0365afcba5ce0dec88abe78cde382"),
        # A bare ValueError / TypeError, and True as 1.0.
        (lambda: _stamped("abc"), "metrics", lambda: _stamped(1.0), 1.0),
        (lambda: _stamped(False), "metrics", lambda: _stamped(0), 0.0),
        (lambda: _stamped(True), "metrics",
         lambda: _described(np_float(1e-3)),
         "26ebe3ff2d1f334ac99f35364f24b90b"),
        (lambda: Telemetry(interval=True), "interval",
         lambda: Telemetry(interval=np_float(1e-3)).interval, 1e-3),
        # A bare ValueError / OverflowError from the bucket index.
        (lambda: Histogram().observe(float("nan")), "finite",
         lambda: _observed(1e300), {"31919": 1}),
        (lambda: Histogram().observe(float("inf")), "finite",
         lambda: _observed(1.7976931348623157e308), {"32799": 1}),
    ], ids=["describe-true", "describe-str", "stamp-str", "stamp-false",
            "stamp-true", "telemetry-true", "observe-nan", "observe-inf"])
    def test_one_interval_check_names_the_field(self, bad, field, good,
                                                answer):
        with pytest.raises(ConfigurationError, match=field):
            bad()
        assert good() == answer

    @pytest.mark.parametrize("value", [0.0, 0.005])
    def test_zero_and_positive_intervals_still_pass(self, value):
        from repro.bench.harness import describe, observation, observed

        explicit = describe("fib", "ipsc2", 8, metrics=value)
        added = observed(describe("fib", "ipsc2", 8),
                         observation(metrics=value))
        assert dict(explicit.params)["metrics"] == value
        assert added == explicit

    def test_execute_descriptor_attaches_payload(self):
        from repro.bench.harness import describe, execute_descriptor

        base = execute_descriptor(describe("fib", "ipsc2", 8))
        row = execute_descriptor(describe("fib", "ipsc2", 8, metrics=0.0))
        assert base.telemetry is None
        payload = row.telemetry
        assert payload["format"] == "repro-metrics-v1"
        assert payload["meta"]["app"] == "fib"
        assert payload["meta"]["num_pes"] == 8
        assert payload["snapshots"][-1]["label"] == "final"
        # Same virtual-time row either way.
        assert (row.answer, row.vtime, row.qd_work_end) == \
            (base.answer, base.vtime, base.qd_work_end)

    def test_cli_writes_metric_streams(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out, stats = tmp_path / "metrics", tmp_path / "stats.json"
        assert main(["--exp", "t9", "--scale", "quick", "--jobs", "1",
                     "--no-cache", "--no-progress", "--metrics-out", str(out),
                     "--stats-json", str(stats)]) == 0
        jsonl = sorted(out.glob("*.metrics.jsonl"))
        prom = sorted(out.glob("*.prom"))
        written = json.loads(stats.read_text())["metrics_written"]
        assert len(jsonl) == len(prom) == written > 0
        for stream, scrape in zip(jsonl, prom):
            parsed = read_metrics_jsonl(stream.read_text())
            assert parsed["snapshots"][-1]["label"] == "final"
            assert to_prometheus(parsed) == scrape.read_text()
        assert capsys.readouterr().err.count("health: final") == written
