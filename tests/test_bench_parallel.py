"""Determinism guard and failure isolation for the parallel sweep executor.

The tentpole invariant: because every run is deterministic virtual time,
``--jobs N`` must produce *byte-identical* experiment tables to the
serial path, and a cache hit must replay the identical row.  These tests
pin that, plus the executor's failure-isolation contract (a failing run
is reported by descriptor, not by killing the sweep).
"""

import json
from dataclasses import replace

import pytest

from repro.bench.cache import ResultCache
from repro.bench.descriptors import RunDescriptor
from repro.bench.experiments import run_experiment
from repro.bench.harness import APPS, AppSpec, describe, measure, measure_many
from repro.bench.parallel import SweepExecutor, SweepRunError, use_executor
from repro.util.errors import ConfigurationError


def _run(exp_id, **executor_kwargs):
    with SweepExecutor(**executor_kwargs) as ex, use_executor(ex):
        return run_experiment(exp_id, scale="quick")


def _payload(result):
    return (result.text, json.dumps(result.data, default=repr, sort_keys=True))


# ------------------------------------------------------- determinism guard
def test_t2_jobs4_byte_identical_to_serial():
    serial = _run("t2", jobs=1)
    parallel = _run("t2", jobs=4)
    assert _payload(parallel) == _payload(serial)


def test_r1_jobs4_byte_identical_to_serial():
    """R1 engages the fault layer (drops/retries) — still schedule-invariant."""
    serial = _run("r1", jobs=1)
    parallel = _run("r1", jobs=4)
    assert _payload(parallel) == _payload(serial)


@pytest.mark.parametrize("exp_id", ["f1", "t5"])
def test_jobs2_byte_identical_with_memoised_tree_shape(exp_id):
    """The tree app memoises its shape function per process: serial runs
    share one memo, pool workers each fill their own (T5 quick walks the
    tree in every run; F1 is the figure the ledger's sweep is mostly made
    of).  Rows must not depend on which."""
    serial = _run(exp_id, jobs=1)
    parallel = _run(exp_id, jobs=2)
    assert _payload(parallel) == _payload(serial)


def test_cache_hit_replays_identical_row(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="pinned")
    with SweepExecutor(jobs=1, cache=cache) as ex, use_executor(ex):
        first = measure("fib", "ipsc2", 4, n=12, threshold=6)
    assert cache.stores == 1 and cache.hits == 0
    replay_cache = ResultCache(str(tmp_path), fingerprint="pinned")
    with SweepExecutor(jobs=1, cache=replay_cache) as ex, use_executor(ex):
        second = measure("fib", "ipsc2", 4, n=12, threshold=6)
    assert replay_cache.hits == 1 and replay_cache.stores == 0
    # The replayed row equals the executed one in every projected field
    # (the live RunResult is inline-only by design).
    assert second.result is None
    assert replace(first, result=None) == second


def test_cached_experiment_table_identical(tmp_path):
    cache_dir = str(tmp_path)
    cold = _run("t9", jobs=1, cache=ResultCache(cache_dir))
    warm_cache = ResultCache(cache_dir)
    warm = _run("t9", jobs=1, cache=warm_cache)
    assert warm_cache.hits > 0 and warm_cache.misses == 0
    assert _payload(warm) == _payload(cold)


# -------------------------------------------------------- failure isolation
@pytest.fixture
def exploding_app(monkeypatch):
    def boom(machine, seed=0, **params):
        raise ValueError("deliberate kaboom")

    monkeypatch.setitem(APPS, "exploding", AppSpec("exploding", boom, {}))
    return "exploding"


def test_inline_failure_names_descriptor(exploding_app):
    good = describe("fib", "ideal", 1, n=10, threshold=5)
    bad = describe(exploding_app, "ideal", 2)
    with SweepExecutor(jobs=1) as ex, use_executor(ex):
        with pytest.raises(SweepRunError) as err:
            measure_many([good, bad, good])
    assert "exploding@ideal P=2" in str(err.value)
    assert "deliberate kaboom" in str(err.value)


def test_pooled_failure_names_descriptor_and_batch_survives(exploding_app):
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("monkeypatched app registry needs fork start method")
    good = describe("fib", "ideal", 1, n=10, threshold=5)
    bad = describe(exploding_app, "ideal", 2)
    with SweepExecutor(jobs=2) as ex, use_executor(ex):
        with pytest.raises(SweepRunError) as err:
            measure_many([good, bad, good])
    assert "exploding@ideal P=2" in str(err.value)
    # Exactly the one bad descriptor failed; the good runs completed.
    assert len(err.value.failures) == 1


def test_pool_reused_warm_across_batches():
    descs = [describe("fib", "ideal", p, n=10, threshold=5) for p in (1, 2)]
    with SweepExecutor(jobs=2) as ex, use_executor(ex):
        measure_many(descs)
        pool_first = ex._pool
        measure_many(descs)
        assert ex._pool is pool_first
        assert pool_first is not None


def test_jobs1_never_creates_pool():
    with SweepExecutor(jobs=1) as ex, use_executor(ex):
        measure("fib", "ideal", 1, n=10, threshold=5)
        assert ex._pool is None


@pytest.mark.parametrize("timeout",
                         [0, -1, 0.0, float("nan"), float("inf")])
def test_executor_rejects_unusable_timeout(timeout):
    """0 used to be accepted, then every pooled run was 'stuck after 0s'."""
    with pytest.raises(ConfigurationError, match="timeout"):
        SweepExecutor(jobs=2, timeout=timeout)


@pytest.mark.parametrize("jobs", [0, -3, 2.7, "x"])
def test_executor_rejects_unusable_jobs(jobs):
    """0 and -3 used to become 1 and 2.7 became 2, all without a word."""
    with pytest.raises(ConfigurationError, match="jobs"):
        SweepExecutor(jobs=jobs)


def test_executor_jobs_none_still_means_all_cores():
    from repro.bench.parallel import default_jobs

    with SweepExecutor(jobs=None) as ex:
        assert ex.jobs == default_jobs() >= 1


def test_executor_summary_counts(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="pinned")
    descs = [describe("fib", "ideal", p, n=10, threshold=5) for p in (1, 2)]
    with SweepExecutor(jobs=1, cache=cache) as ex, use_executor(ex):
        measure_many(descs)
        measure_many(descs)  # replayed
        summary = ex.summary()
    assert summary["runs_executed"] == 2
    assert summary["runs_cached"] == 2
    assert summary["cache"]["hit_rate"] == pytest.approx(0.5)
    # What the ledger reports, from an ordinary run: peak memory and what
    # the cycle collector did during the sweep, per generation.
    assert summary["peak_rss_mb"] > 0
    assert set(summary["gc"]) == {"collections", "collected"}
    assert all(len(per_gen) == 3 and min(per_gen) >= 0
               for per_gen in summary["gc"].values())
    json.dumps(summary)


# ------------------------------------------------------------- descriptors
def test_descriptor_key_stable_and_discriminating():
    a = describe("queens", "ipsc2", 4, n=6, grainsize=2)
    b = describe("queens", "ipsc2", 4, n=6, grainsize=2)
    assert a == b
    assert a.key("fp") == b.key("fp")
    assert a.key("fp") != a.key("other-code")
    assert a.key("fp") != describe("queens", "ipsc2", 4, n=7,
                                   grainsize=2).key("fp")
    assert a.key("fp") != describe("queens", "ipsc2", 8, n=6,
                                   grainsize=2).key("fp")


def test_descriptor_rejects_live_objects():
    from repro.util.errors import ConfigurationError

    desc = RunDescriptor("fib", "ideal", 1, 0,
                         params=(("callback", object()),))
    with pytest.raises(ConfigurationError):
        desc.key("fp")


def test_describe_unknown_app_rejected():
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        describe("doom", "ideal", 2)


@pytest.mark.parametrize("field, args, kwargs", [
    ("machine", ("fib", "nope", 4), {}),
    ("num_pes", ("fib", "ipsc2", 4.0), {}),   # shared num_pes=4's cache key
    ("num_pes", ("fib", "ipsc2", 2.5), {}),
    ("num_pes", ("fib", "ipsc2", "4"), {}),
    ("num_pes", ("fib", "ipsc2", 0), {}),
    ("seed", ("fib", "ipsc2", 4), {"seed": 1.5}),  # ran as seed 1, same key
    ("seed", ("fib", "ipsc2", 4), {"seed": "a"}),
], ids=["machine", "pes-4.0", "pes-2.5", "pes-str", "pes-0",
        "seed-1.5", "seed-str"])
def test_describe_fails_early_and_names_the_field(field, args, kwargs):
    """Each used to return a descriptor that died inside the run (in a pool
    worker, as a failed run) or, for seed=1.5, ran as somebody else."""
    with pytest.raises(ConfigurationError, match=field):
        describe(*args, **kwargs)


def test_describe_takes_any_integer_type_and_keeps_the_key():
    import numpy as np

    from repro.bench.harness import execute_descriptor

    plain = describe("fib", "ipsc2", 4, seed=1, n=12, threshold=6)
    numpy = describe("fib", "ipsc2", np.int64(4), seed=np.int64(1),
                     n=12, threshold=6)
    assert numpy == plain and numpy.key("fp") == plain.key("fp")
    assert describe("fib", "ipsc2", 4, seed=-1).seed == -1
    row = execute_descriptor(numpy)
    assert (row.answer, row.vtime) == (144, 0.0073360799999999966)
