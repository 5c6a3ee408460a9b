"""Integration tests: every experiment runs (quick scale) and its claim
shape — the thing the reproduction is *for* — holds."""

import hashlib
import json
import os

import pytest

from repro.bench.cache import ResultCache
from repro.bench.experiments import (EXPERIMENTS, run_experiment,
                                     run_experiments)
from repro.bench.harness import describe, sweep_from_rows
from repro.bench.parallel import SweepExecutor, use_executor
from repro.metrics.latency import latency_summary
from repro.obs import RunHealth
from repro.trace import EVENT_KINDS, critical_path
from repro.util.errors import ConfigurationError
from repro.util.hashing import stable_digest
from tests.conftest import read_metrics_jsonl


class Recording(SweepExecutor):
    """The serial executor with a result cache, remembering every
    descriptor submitted to it."""

    def __init__(self, cache):
        super().__init__(jobs=1, cache=cache)
        self.descs = []

    def run_many(self, descs, label=""):
        self.descs.extend(descs)
        return super().run_many(descs, label=label)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Run every experiment once at quick scale, one batch each (as the
    performance ledger does), storing every row in a fresh result cache;
    share across tests."""
    cache_dir = tmp_path_factory.mktemp("bench_cache")
    with Recording(ResultCache(str(cache_dir))) as ex:
        results = {exp_id: run_experiments([exp_id], "quick", ex)[0]
                   for exp_id in EXPERIMENTS}
    return results, ex.descs, cache_dir


@pytest.fixture(scope="module")
def results(sweep):
    return sweep[0]


def test_cache_keys_of_the_quick_sweep_equal_the_parents(sweep):
    """What ``--exp all --scale quick`` looks up in the result cache.

    The digest is of the sorted keys as the parent commit computed them
    (``fingerprint="x"``): a cheaper ``_feed`` or ``canonical()`` must not
    move one, or every cached row is silently re-executed.
    """
    descs = sweep[1]
    assert len(descs) == 182
    for fingerprint in ("", "x", "5f0c" * 8):
        for desc in descs:
            assert desc.key(fingerprint) == stable_digest(
                (fingerprint, desc.canonical()))
    keys = sorted({desc.key("x") for desc in descs})
    assert len(keys) == 154         # 28 rows repeat an earlier descriptor
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
        "a2600754de7e9d3ce61737877f6fd814d5db37a117de5b715cb9c1f643ffda6d")


def test_cached_rows_stay_small(sweep):
    """The cold quick sweep stores 154 files under 700,000 B: 628,686 B
    with per-PE rows pickled as tuples, 775,530 B when each carried a
    22-entry state dict.  The total is deterministic to a few bytes, so a
    fattened row trips this where a noisy clock never would."""
    sizes = [os.path.getsize(path) for path in sweep[2].rglob("*.pkl")]
    assert len(sizes) == 154
    assert sum(sizes) < 700_000, f"what did a row gain? {sum(sizes)} B"


def test_all_experiments_produce_tables(results):
    for exp_id, res in results.items():
        assert res.exp_id.lower() == exp_id
        assert res.text.strip()
        assert res.data


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run_experiment("t99")


def test_one_sweep_runs_each_distinct_descriptor_once():
    """``run_experiments(["t2", "f1"])`` reports what two ``run_experiment``
    calls report, from one batch in which every canonical key appears
    once, in first-occurrence order: T2 and F1 share their symmetry runs."""
    with SweepExecutor(jobs=1) as ex, use_executor(ex):
        alone = [run_experiment(exp_id, scale="quick")
                 for exp_id in ("t2", "f1")]
    with Recording(None) as ex:
        together = run_experiments(["t2", "f1"], "quick", ex)
    assert ex.batches == 1
    planned = EXPERIMENTS["t2"]("quick")[0] + EXPERIMENTS["f1"]("quick")[0]
    first = {}
    for desc in planned:
        first.setdefault(desc.canonical(), desc)
    assert ex.descs == list(first.values())
    assert len(ex.descs) < len(planned)

    def payload(res):
        return res.text, json.dumps(res.data, default=repr, sort_keys=True)

    assert [payload(res) for res in together] == [payload(res)
                                                   for res in alone]


def test_t1_every_app_charges_work_and_sends_messages(results):
    for app, row in results["t1"].data.items():
        assert row["work"] > 0, f"{app} charged no work"
        assert row["msgs"] > 0, f"{app} sent no message"


def test_t2_shared_memory_speedup_shapes(results):
    apps = results["t2"].data["apps"]
    for name, d in apps.items():
        speedups = d["speedups"]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[1] > 1.2, f"{name} gained nothing from 2 PEs"
        assert speedups[-1] > 1.0, f"{name} failed to speed up at all"
        # Coarse tree programs keep scaling; nothing exceeds linear by much.
        for p, s in zip(results["t2"].data["pes"], speedups):
            assert s <= p * 1.5


def test_t3_hypercube_latency_hurts_vs_bus(results):
    t2 = results["t2"].data["apps"]
    t3 = results["t3"].data["apps"]
    # At equal P=4, the fine-grain queens program does no better on the
    # high-latency hypercube than on the bus machine.
    s_bus = t2["queens"]["speedups"][results["t2"].data["pes"].index(4)]
    s_cube = t3["queens"]["speedups"][results["t3"].data["pes"].index(4)]
    assert s_cube <= s_bus + 0.3
    for name, d in t3.items():
        assert d["speedups"][1] > 1.0, f"{name} lost time going parallel"


def test_t4_tree_scales_to_large_p(results):
    tree = results["t4"].data["apps"]["tree"]["speedups"]
    assert tree[-1] > tree[1]


def test_t5_balancing_beats_no_balancing(results):
    d = results["t5"].data
    assert d["local"]["time"] > 2 * d["acwn"]["time"]
    assert d["local"]["time"] > 2 * d["random"]["time"]
    assert d["acwn"]["imbalance"] < d["local"]["imbalance"]
    # ACWN ships fewer seeds around than blind random placement.
    assert d["acwn"]["remote_seeds"] < d["random"]["remote_seeds"]


def test_t6_priority_expands_fewest_nodes(results):
    d = results["t6"].data
    assert d["('knapsack', 'prio')"]["nodes"] <= d["('knapsack', 'fifo')"]["nodes"]
    # All strategies find the same optimum.
    bests = {v["best"] for k, v in d.items() if "tsp" in k}
    assert len(bests) == 1


def test_t7_sharing_prunes(results):
    d = results["t7"].data
    assert d["off"]["nodes"] >= d["eager"]["nodes"]
    assert d["off"]["msgs"] == 0
    assert d["eager"]["msgs"] > 0
    assert d["eager"]["best"] == d["off"]["best"] == d["lazy"]["best"]


def test_t8_throughput_scales(results):
    d = results["t8"].data
    ps = sorted(d)
    assert d[ps[-1]]["time"] < d[ps[0]]["time"]


def test_t9_latency_nonnegative_and_bounded(results):
    d = results["t9"].data
    for p, row in d.items():
        assert row["latency"] >= 0
        assert row["waves"] >= 2


def test_t10_adaptive_placement_beats_load_blind(results):
    """Node speeds differ 4x: load-aware ACWN beats every load-blind
    placement on time, and keeps the PEs busier than random does."""
    d = results["t10"].data
    assert d["acwn"]["time"] < d["roundrobin"]["time"]
    assert d["acwn"]["time"] < d["random"]["time"]
    assert d["acwn"]["util"] > d["random"]["util"]


def test_t11_sparse_scale_curve_is_flat(results):
    d = results["t11"].data
    for app, series in d["apps"].items():
        times = [row["time"] for row in series]
        touched = [row["touched"] for row in series]
        # Virtual time is essentially P-independent (the sparse machine
        # adds no per-rank cost) and the touched set never tracks P.
        assert max(times) <= min(times) * 1.1, f"{app} vtime grew with P"
        for p, k in zip(d["pes"], touched):
            assert k < p, f"{app} touched every rank at P={p}"
        assert max(touched) <= min(touched) * 2, f"{app} touched grew with P"


def test_s5_serving_latency_independent_of_farm_size(results):
    d = results["s5"].data
    p99s = [row["p99"] for row in d["series"]]
    assert max(p99s) <= min(p99s) * 1.2, "p99 depends on sparse farm size"
    for pes, row in zip(d["pes"], d["series"]):
        assert row["completed"] == row["offered"]
        assert row["touched"] <= d["count"] + 2


def test_f1_series_complete(results):
    data = results["f1"].data
    assert any(k.startswith("queens@") for k in data)
    for series in data.values():
        assert series[0] == pytest.approx(1.0)


def test_f2_efficiency_decreases_with_tiny_grain(results):
    q = results["f2"].data["queens"]
    grains = sorted(q)
    # Efficiency at the coarsest measured grain is lower than at the knee
    # (too few chares), and mid grains beat the extremes on this size.
    assert max(q.values()) <= 1.1
    for app in ("queens", "fib"):
        series = results["f2"].data[app]
        assert all(0 < eff <= 1.2 for eff in series.values()), (app, series)


def test_f3_balancers_flatten_utilization(results):
    d = results["f3"].data
    spread = lambda utils: max(utils) - min(utils)
    assert spread(d["acwn"]) < spread(d["local"])


def test_a1_binomial_tree_cuts_collective_hops(results):
    d = results["a1"].data
    assert d["binomial"]["hops"] < d["rank"]["hops"]


def test_a2_wider_batching_window_prunes_less_with_fewer_messages(results):
    d = results["a2"].data
    widest, narrowest = d[max(d)], d[min(d)]
    # Staler bounds expand at least as many nodes, on no more messages.
    assert widest["nodes"] >= narrowest["nodes"]
    assert widest["msgs"] <= narrowest["msgs"]


def test_a3_wider_qd_interval_trades_latency_for_waves(results):
    d = results["a3"].data
    widest, narrowest = d[max(d)], d[min(d)]
    assert widest["latency"] > narrowest["latency"]
    assert widest["waves"] <= narrowest["waves"]


def test_a4_higher_acwn_threshold_moves_fewer_seeds(results):
    d = results["a4"].data
    assert d["(8, 4)"]["remote"] < d["(1, 4)"]["remote"]


def test_a5_link_contention_hurts_all_to_all_most(results):
    d = results["a5"].data
    sort = d["samplesort"]["contended"] / d["samplesort"]["plain"]
    jacobi = d["jacobi"]["contended"] / d["jacobi"]["plain"]
    assert sort > 1.0, "contention must cost something all-to-all"
    assert sort > jacobi, "all-to-all must suffer more than a stencil"


def test_tracing_the_sweep_leaves_s6_unchanged(tmp_path, monkeypatch):
    """``--trace-out`` observes a sweep and never changes a table.

    S6's scale arm states ``trace_events=None``, so a tracing sweep leaves
    it without a recorder: it keeps ``validated: false`` and its ``-``
    bucket column, and both of S6's outputs equal the untraced ones byte
    for byte once host seconds are zeroed.  Only the validation arm is
    traced and exported."""
    from repro.bench import harness
    from repro.bench.__main__ import main

    run = harness.run_descriptor

    def host_free(desc):
        row = run(desc)
        row.host_seconds = 0.0
        return row

    monkeypatch.setattr(harness, "run_descriptor", host_free)
    traces = tmp_path / "traces"
    outputs = {}
    for name, extra in (("plain", []), ("traced", ["--trace-out", str(traces)])):
        tables = tmp_path / name
        assert main(["--exp", "s6", "--scale", "quick", "--jobs", "1",
                     "--no-cache", "--no-progress", "--output", str(tables),
                     *extra]) == 0
        outputs[name] = [(tables / f"s6.{ext}").read_text()
                         for ext in ("txt", "json")]
    assert outputs["traced"] == outputs["plain"]
    series = json.loads(outputs["traced"][1])["data"]["series"]
    assert [row["validated"] for row in series] == [True, False]
    assert len(list(traces.glob("*.run.json"))) == 1


def test_s1_cli_exports_parse_and_rederive_the_folded_digests(results,
                                                               tmp_path):
    """``python -m repro.bench --exp s1 --trace-out --metrics-out``: every
    exported run analyzes, is causally ordered and bounded, every metric
    stream and scrape parses, and the latency walk over the exported
    events gives the untraced sweep's folded digests float for float, as
    does the traced table the same command writes."""
    from repro.bench.__main__ import main
    from repro.trace.__main__ import load_run, main as trace_main

    tables, traces, streams = (tmp_path / name
                               for name in ("tables", "traces", "metrics"))
    assert main(["--exp", "s1", "--scale", "quick", "--jobs", "1",
                 "--no-cache", "--no-progress", "--output", str(tables),
                 "--trace-out", str(traces),
                 "--metrics-out", str(streams)]) == 0
    keys = ("p50", "p95", "p99", "mean", "mean_queue_wait")

    def digests(series):
        return sorted(tuple(row[k] for k in keys) for row in series)

    runs = sorted(traces.glob("*.run.json"))
    walked = []
    for path in runs:
        assert trace_main([str(path)]) == 0
        doc = load_run(str(path))
        assert doc["format"] == "repro-trace-v1" and doc["dropped"] == 0
        for e in doc["events"]:
            assert e["kind"] in EVENT_KINDS, e
            assert e["parent"] is None or e["parent"] < e["eid"], e
        path_len = critical_path(doc["events"]).length
        assert path_len <= doc["meta"]["total_time"] + 1e-12
        walked.append(latency_summary(doc["events"]))
    folded = digests(results["s1"].data["series"])
    assert digests(walked) == folded
    traced = json.loads((tables / "s1.json").read_text())["data"]["series"]
    assert digests(traced) == folded

    jsonl = sorted(streams.glob("*.metrics.jsonl"))
    proms = sorted(streams.glob("*.prom"))
    assert len(jsonl) == len(proms) == len(runs) > 0
    for path in jsonl:
        payload = read_metrics_jsonl(path.read_text())
        assert payload["snapshots"], path
        assert RunHealth(payload).report()["status"] == "final", path
    for path in proms:
        text = path.read_text()
        assert "# TYPE repro_exec_total counter" in text, path
        assert "# TYPE repro_serving_latency_seconds histogram" in text, path
        assert 'le="+Inf"' in text, path


# --------------------------------------------------------------- harness unit
def test_measure_unknown_app():
    with pytest.raises(ConfigurationError):
        describe("doom", "ideal", 2)


def test_sweep_consistency_flag():
    rows = SweepExecutor(jobs=1).run_many(
        [describe("queens", "ideal", p, n=6, grainsize=2) for p in (1, 2)])
    sweep = sweep_from_rows("queens", "ideal", [1, 2], rows)
    assert sweep.consistent()
    assert sweep.speedups[0] == pytest.approx(1.0)
    assert len(sweep.speedups) == 2
