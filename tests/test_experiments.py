"""Integration tests: every experiment runs (quick scale) and its claim
shape — the thing the reproduction is *for* — holds."""

import hashlib

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import measure, speedup_sweep
from repro.bench.parallel import SweepExecutor, use_executor
from repro.util.errors import ConfigurationError
from repro.util.hashing import stable_digest


class Recording(SweepExecutor):
    """The serial executor, remembering every descriptor submitted to it."""

    def __init__(self):
        super().__init__(jobs=1)
        self.descs = []

    def run_many(self, descs, label=""):
        self.descs.extend(descs)
        return super().run_many(descs, label=label)


@pytest.fixture(scope="module")
def sweep():
    """Run every experiment once at quick scale; share across tests."""
    with Recording() as ex, use_executor(ex):
        results = {exp_id: run_experiment(exp_id, scale="quick")
                   for exp_id in EXPERIMENTS}
    return results, ex.descs


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


def test_all_experiments_produce_tables(results):
    for exp_id, res in results.items():
        assert res.exp_id.lower() == exp_id
        assert res.text.strip()
        assert res.data


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run_experiment("t99")


def test_t2_shared_memory_speedup_shapes(results):
    apps = results["t2"].data["apps"]
    for name, d in apps.items():
        speedups = d["speedups"]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[1] > 1.2, f"{name} gained nothing from 2 PEs"
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


def test_f3_balancers_flatten_utilization(results):
    d = results["f3"].data
    spread = lambda utils: max(utils) - min(utils)
    assert spread(d["acwn"]) < spread(d["local"])


# --------------------------------------------------------------- harness unit
def test_measure_unknown_app():
    with pytest.raises(ConfigurationError):
        measure("doom", "ideal", 2)


def test_sweep_consistency_flag():
    sweep = speedup_sweep("queens", "ideal", [1, 2], n=6, grainsize=2)
    assert sweep.consistent()
    assert sweep.speedups[0] == pytest.approx(1.0)
    assert len(sweep.efficiencies) == 2
