"""Self-tests of the ledger: ``python3 -m pytest ledger -q`` from the repo root.

They sit outside the tier-1 ``testpaths`` on purpose: they test the
measuring instrument, not the simulator.
"""

import copy
import cProfile
import json
import time
from dataclasses import replace

import pytest

# ``ledger`` first: importing it puts the simulator's sources on the path.
from ledger import ROOT, compare, layers, passes, probes, run, workloads
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import describe, execute_descriptor
from repro.bench.parallel import SweepRunError


# ------------------------------------------------------------------- contract
def test_benchmark_json_names_what_the_ledger_measures(monkeypatch):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why
               for w in contract["workloads"])
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    # One sample of no minimum length: the probes' names and sanity, not speed.
    monkeypatch.setattr(probes, "REPEATS", 1)
    monkeypatch.setattr(probes, "SAMPLE_S", 0.0)
    before = _litter()
    probed = probes.run_probes()
    assert _litter() == before
    assert all(value > 0 for value in probed.values())
    expected = {f"{layer}.{kind}" for layer in layers.LAYERS
                for kind in ("self_s", "calls")}
    expected |= set(workloads.COUNTERS) | set(workloads.SPAN_METRICS) | set(probed)
    expected.add("ledger.trace_overhead_x")
    assert expected == {m["name"] for m in contract["per_layer"]}


def test_paper_workloads_are_exactly_exp_all():
    paper = workloads.SEARCH + workloads.TABLES + workloads.SERVING
    assert sorted(paper) == sorted(EXPERIMENTS) == list(workloads.ALL)


def test_seed_0_is_the_papers_and_every_seed_maps_to_a_checked_shift():
    assert workloads.seed_shift(0) == 0
    assert all(workloads.seed_shift(seed) in workloads.SEED_SHIFTS
               for seed in range(-3, 200))


# --------------------------------------------------------------------- layers
SIM = "/x/src/repro/sim/engine.py"
APPS = "/x/src/repro/apps/tsp.py"


def _profile_entry(tottime, callers=None, calls=1):
    return (calls, calls, tottime, tottime, callers or {})


def _edge(tottime):
    return (1, 1, tottime, tottime)


def test_builtin_time_goes_to_the_calling_layer_and_sums_to_the_total():
    run = (SIM, 10, "run")
    bound = (APPS, 20, "_lower_bound")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    sorted_ = ("~", 0, "<built-in method builtins.sorted>")
    library = ("/usr/lib/python3/bisect.py", 5, "insort")    # called by both
    helper = ("/usr/lib/python3/bisect.py", 9, "helper")     # library -> helper
    ping = ("/usr/lib/python3/json.py", 1, "ping")           # a cycle that
    pong = ("/usr/lib/python3/json.py", 2, "pong")           # nobody enters
    root = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        run: _profile_entry(1.0),
        bound: _profile_entry(2.0),
        heappop: _profile_entry(0.5, {run: _edge(0.5)}),
        sorted_: _profile_entry(0.25, {bound: _edge(0.25)}),
        library: _profile_entry(0.4, {run: _edge(0.1), bound: _edge(0.3)}),
        helper: _profile_entry(0.8, {library: _edge(0.8)}),
        ping: _profile_entry(0.1, {pong: _edge(0.1)}),
        pong: _profile_entry(0.1, {ping: _edge(0.1)}),
        root: _profile_entry(0.05),
    }
    result = layers.bucket(stats)
    shares = {name: row["self_s"] for name, row in result["layers"].items()}
    assert result["total_s"] == pytest.approx(5.2)
    assert sum(shares.values()) == pytest.approx(result["total_s"], rel=1e-9)
    assert shares["sim"] == pytest.approx(1.0 + 0.5 + 0.1 + 0.8 * 0.25)
    assert shares["apps"] == pytest.approx(2.0 + 0.25 + 0.3 + 0.8 * 0.75)
    assert shares["other"] == pytest.approx(0.1 + 0.1 + 0.05)
    assert result["layers"]["sim"]["calls"] == 1
    assert result["layers"]["other"]["calls"] == 7


def test_layers_of_a_real_profile_sum_to_its_total():
    desc = describe("queens", "ipsc2", 4, n=5, grainsize=2)
    profiler = cProfile.Profile()
    profiler.enable()
    execute_descriptor(desc)
    profiler.disable()
    result = layers.layer_profile(profiler)
    shares = [row["self_s"] for row in result["layers"].values()]
    assert sum(shares) == pytest.approx(result["total_s"], rel=0.01)
    assert result["layers"]["core"]["self_s"] > 0
    assert result["layers"]["core"]["calls"] > 0
    assert layers.layer_of(__file__) == "other"


# ------------------------------------------------------------------- failures
class StubExecutor:
    """An executor the submitter can drive, whose rows a test can doctor."""

    cache = None

    def __init__(self, doctor):
        self.doctor = doctor
        self.seen = []

    def run_many(self, descs, label=""):
        self.seen.extend(descs)
        return [self.doctor(desc, execute_descriptor(desc)) for desc in descs]


DESC = describe("queens", "ipsc2", 4, n=5, grainsize=2)


def _submit(doctor, seed=0, reference=None):
    recorder = passes.Recorder(seed, reference)
    recorder.begin("pass", "test")
    executor = StubExecutor(doctor)
    try:
        passes.Submitter(executor, recorder).run_many([DESC], label="test")
    finally:
        recorder.end()
    return recorder, executor


def test_a_clean_run_is_attempted_and_not_failed():
    recorder, executor = _submit(lambda desc, row: row, seed=5)
    assert (recorder.attempted, recorder.failures) == (1, [])
    assert executor.seen[0].seed == DESC.seed + 5, "the seed shifts every run"
    assert recorder.run_execs == recorder.counters["core.execs"] > 0


def test_a_truncated_run_fails():
    recorder, _ = _submit(lambda desc, row: replace(row, truncated=True))
    assert recorder.attempted == 1
    assert recorder.failures == [(DESC.label(), "truncated")]


def test_a_run_that_raises_fails_before_the_error_travels_on():
    recorder = passes.Recorder(0, None)
    recorder.begin("pass", "test")

    class Raising(StubExecutor):
        def run_many(self, descs, label=""):
            raise SweepRunError([(descs[0], "ValueError: boom")])

    with pytest.raises(SweepRunError):
        passes.Submitter(Raising(None), recorder).run_many([DESC])
    assert recorder.attempted == 1
    assert recorder.failures == [(DESC.label(), "ValueError: boom")]
    assert len(recorder.failures) / recorder.attempted > 0  # failed_frac


def test_a_fingerprint_that_differs_from_the_reference_names_the_run():
    clean, _ = _submit(lambda desc, row: row)
    (key, fingerprint), = clean.fingerprints.items()
    assert _submit(lambda d, r: r, reference={key: fingerprint})[0].failures == []
    wrong = [fingerprint[0], (1.0).hex()] + fingerprint[2:]
    recorder, _ = _submit(lambda d, r: r, reference={key: wrong})
    (label, reason), = recorder.failures
    assert label == DESC.label() and "differs from reference" in reason
    missing, _ = _submit(lambda d, r: r, reference={})
    assert missing.failures == [(DESC.label(), "descriptor not in reference.json")]


# ------------------------------------------------------------------- clean-up
def _litter():
    return {p.name for p in ROOT.iterdir()
            if p.name.startswith(".ledger_tmp_") or p.name == ".bench_cache"}


@pytest.mark.parametrize("jobs,replays", [(2, 0), (1, 2)])
def test_a_pass_with_a_cache_leaves_nothing_behind(monkeypatch, jobs, replays):
    before = _litter()
    mini = workloads.Workload("mini", ("t9", "t8"), "quick", jobs, True, replays, "test")
    monkeypatch.setitem(passes.WORKLOADS, "mini", mini)
    out = passes.run_child("mini", 0, time.time(), profile=False, setup_only=False,
                           verify=True, keep_spans=True)
    assert _litter() == before
    assert out["failed"] == 0, out["failures"]
    runs = 6  # t9 and t8 at quick scale
    assert out["attempted"] == runs * (replays or 1)
    assert out["counters"]["bench.runs_cached"] == (runs * replays if replays else 0)
    assert out["counters"]["bench.cache_stores"] == (0 if replays else runs)
    assert out["ops"] > 0 and out["wall_s"] > 0 and out["setup_s"] > 0
    assert 0 < out["base_rss_mb"] <= out["peak_rss_mb"]
    kinds = {span[2] for span in out["spans"]}
    assert {"pass", "experiment", "batch"} <= kinds
    assert ("run" in kinds) == (not replays)


def test_memory_is_scaled_to_the_reference_amount_of_work():
    # Three seeds of one commit: 40 MB of set-up plus 0.2 MB per 1000 executions.
    passes_ = [{"base_rss_mb": 40.0, "peak_rss_mb": 40.0 + 0.2 * kops, "ops": kops * 1000}
               for kops in (100, 300, 400)]
    assert [run.ref_work_rss_mb(p, 300_000) for p in passes_] == pytest.approx([100.0] * 3)
    # At the reference's own work, and without a reference, it is the peak itself.
    assert run.ref_work_rss_mb(passes_[1], 300_000) == pytest.approx(passes_[1]["peak_rss_mb"])
    assert run.ref_work_rss_mb(passes_[0], None) == passes_[0]["peak_rss_mb"]
    reference = workloads.load_reference()
    assert set(reference["ops"]) == set(reference["attempted"]) == set(workloads.WORKLOADS)


# -------------------------------------------------------------------- compare
def _report(scale=1.0, slowed="tables"):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = {"ops_per_s": [50000.0, 50400.0, 49800.0, 50100.0, 49900.0,
                          50300.0, 49700.0, 50200.0, 50050.0, 49950.0],
            "peak_rss_ref_mb": [90.0 + 0.01 * i for i in range(10)],
            "setup_s": [0.25 + 0.001 * i for i in range(10)],
            "ok_frac": [1.0] * 10}
    report = {"seed": 0, "host": {"commit": "test"}, "workloads": {}}
    for name in ("search", "tables"):
        end_to_end = {}
        for spec in contract["end_to_end"]:
            samples = list(base[spec["name"]])
            if name == slowed and spec["name"] == "ops_per_s":
                samples = [v / scale for v in samples]
            end_to_end[spec["name"]] = dict(spec, samples=samples)
        report["workloads"][name] = {
            "end_to_end": end_to_end, "attempted": 100, "failed": 0,
            "fingerprint_digest": "d0", "fingerprints": {"k": ["queens@x P=1", "0x1p+0"]},
            "counters": {"core.execs": 7}, "layers": {"core": {"calls": 3}},
        }
    return report


def test_compare_passes_two_sets_of_the_same_commit():
    lines, problems = compare.compare(_report(), _report())
    assert problems == []
    assert all("no change" in line for line in lines if " | " in line)


def test_compare_flags_a_15_percent_slowdown_of_one_workload():
    lines, problems = compare.compare(_report(), _report(scale=1.15))
    assert len(problems) == 1 and problems[0].startswith("tables ops_per_s ")
    flagged = [line for line in lines if "| worse" in line or "REGRESSION" in line]
    assert len(flagged) == 1 and "B won 0/10" in flagged[0]
    assert compare.compare(_report(), _report(scale=1.5))[1] == [
        "tables ops_per_s regressed beyond its bound"]


def test_compare_calls_a_clear_gain_better_and_a_noisy_one_unresolved():
    verdicts = [line for line in compare.compare(_report(), _report(scale=0.9))[0]
                if line.startswith("ops_per_s")]
    assert "better" in verdicts[1] and "no change" in verdicts[0]
    noisy = _report()
    samples = noisy["workloads"]["tables"]["end_to_end"]["ops_per_s"]["samples"]
    samples[:] = [v * (0.7 if i % 2 else 1.3) for i, v in enumerate(samples)]
    lines, problems = compare.compare(_report(), noisy)
    assert problems == []
    assert any("unresolved" in line for line in lines)


def test_compare_fails_on_any_change_in_an_exact_quantity():
    changed = _report()
    entry = changed["workloads"]["search"]
    entry["fingerprint_digest"] = "d1"
    entry["fingerprints"] = {"k": ["queens@x P=1", "0x1.8p+0"]}
    entry["counters"] = {"core.execs": 8}
    entry["layers"] = {"core": {"calls": 4}}
    _, problems = compare.compare(_report(), changed)
    assert len(problems) == 3
    assert "queens@x P=1" in problems[0]
    other_seed = copy.deepcopy(changed)
    other_seed["seed"] = 1
    assert compare.compare(_report(), other_seed)[1] == []
