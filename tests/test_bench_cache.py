"""Cache invalidation and robustness for the content-addressed result cache.

The safety property: a cached row may only be replayed when *neither* the
run configuration nor the simulator sources changed, and nothing on disk
— corruption, truncation, format skew — may ever crash a sweep or leak a
wrong row.  Bad files are misses; the next store overwrites them.
"""

import os
import pickle

from repro.bench.cache import ResultCache
from repro.bench.harness import describe
from repro.bench.parallel import SweepExecutor, use_executor
from repro.util.hashing import source_fingerprint


def _tree(tmp_path, name="tree"):
    root = tmp_path / name
    (root / "pkg").mkdir(parents=True)
    (root / "mod.py").write_text("X = 1\n")
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "core.py").write_text("def f():\n    return 2\n")
    (root / "notes.txt").write_text("ignored: not a .py file\n")
    return root


# ---------------------------------------------------------- fingerprinting
def test_source_fingerprint_stable(tmp_path):
    root = _tree(tmp_path)
    assert source_fingerprint(str(root)) == source_fingerprint(str(root))


def test_source_fingerprint_changes_on_edit(tmp_path):
    root = _tree(tmp_path)
    before = source_fingerprint(str(root))
    (root / "pkg" / "core.py").write_text("def f():\n    return 3\n")
    assert source_fingerprint(str(root)) != before


def test_source_fingerprint_changes_on_rename_and_add(tmp_path):
    root = _tree(tmp_path)
    before = source_fingerprint(str(root))
    os.rename(root / "mod.py", root / "mod2.py")
    renamed = source_fingerprint(str(root))
    assert renamed != before
    (root / "extra.py").write_text("")
    assert source_fingerprint(str(root)) != renamed


def test_source_fingerprint_ignores_non_python(tmp_path):
    root = _tree(tmp_path)
    before = source_fingerprint(str(root))
    (root / "notes.txt").write_text("edited\n")
    assert source_fingerprint(str(root)) == before


def test_default_fingerprint_covers_repro_package():
    import repro

    pkg_root = os.path.dirname(os.path.abspath(repro.__file__))
    assert source_fingerprint() == source_fingerprint(pkg_root)


# ---------------------------------------------------- invalidation on edit
def test_source_edit_forces_reexecution(tmp_path):
    """Editing a source file flips the fingerprint: old rows become misses."""
    src = _tree(tmp_path, "src")
    cache_dir = str(tmp_path / "cache")
    desc = describe("fib", "ideal", 2, n=10, threshold=5)

    old = ResultCache(cache_dir, fingerprint=source_fingerprint(str(src)))
    with SweepExecutor(jobs=1, cache=old) as ex, use_executor(ex):
        row = ex.run_one(desc)
    assert old.stores == 1

    (src / "mod.py").write_text("X = 99\n")
    edited = ResultCache(cache_dir, fingerprint=source_fingerprint(str(src)))
    assert edited.fingerprint != old.fingerprint
    with SweepExecutor(jobs=1, cache=edited) as ex, use_executor(ex):
        rerun = ex.run_one(desc)
    assert edited.misses == 1 and edited.hits == 0 and edited.stores == 1
    assert rerun.vtime == row.vtime  # same config → same virtual time

    # Reverting the edit restores the original fingerprint and its entry.
    (src / "mod.py").write_text("X = 1\n")
    reverted = ResultCache(cache_dir, fingerprint=source_fingerprint(str(src)))
    assert reverted.fingerprint == old.fingerprint
    assert reverted.get(desc) is not None


# ------------------------------------------------------- corruption = miss
def test_corrupt_cache_file_is_miss_not_crash(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="fp")
    desc = describe("fib", "ideal", 1, n=10, threshold=5)
    with SweepExecutor(jobs=1, cache=cache) as ex, use_executor(ex):
        row = ex.run_one(desc)
    path = cache.path(desc)

    with open(path, "wb") as fh:
        fh.write(b"\x00garbage not a pickle")
    fresh = ResultCache(str(tmp_path), fingerprint="fp")
    assert fresh.get(desc) is None
    assert fresh.misses == 1 and fresh.corrupt == 1

    # The next store overwrites the corpse and restores service.
    fresh.put(desc, row)
    assert fresh.get(desc) is not None


def test_truncated_cache_file_is_miss(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="fp")
    desc = describe("fib", "ideal", 1, n=10, threshold=5)
    with SweepExecutor(jobs=1, cache=cache) as ex, use_executor(ex):
        ex.run_one(desc)
    path = cache.path(desc)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    assert ResultCache(str(tmp_path), fingerprint="fp").get(desc) is None


def test_file_truncated_between_write_and_read_is_counted_corrupt(tmp_path):
    """ROADMAP's named harness failure mode, end to end: the sweep around
    the damaged entry completes, the cache says why it missed, the re-run
    row overwrites the corpse and the next lookup is a hit again."""
    descs = [describe("fib", "ideal", 2, n=10, threshold=5, seed=s)
             for s in (0, 1, 2)]
    cold = ResultCache(str(tmp_path), fingerprint="fp")
    with SweepExecutor(jobs=1, cache=cold) as ex:
        first = ex.run_many(descs)
    assert (cold.misses, cold.corrupt, cold.stores) == (3, 0, 3)
    assert cold.stats()["corrupt"] == 0

    path = cold.path(descs[1])
    os.truncate(path, os.path.getsize(path) // 2)
    warm = ResultCache(str(tmp_path), fingerprint="fp")
    with SweepExecutor(jobs=1, cache=warm) as ex:
        again = ex.run_many(descs)
        summary = ex.summary()
    assert [row.vtime for row in again] == [row.vtime for row in first]
    assert (warm.hits, warm.misses, warm.corrupt, warm.stores) == (2, 1, 1, 1)
    assert ex.runs_executed == 1 and ex.runs_cached == 2
    # ``misses`` stays the total, so the hit rate keeps its meaning; the
    # reason travels to --stats-json with the other cache statistics.
    assert summary["cache"]["corrupt"] == 1
    assert summary["cache"]["hit_rate"] == round(2 / 3, 4)

    healed = ResultCache(str(tmp_path), fingerprint="fp")
    assert healed.get(descs[1]) is not None
    assert (healed.hits, healed.misses, healed.corrupt) == (1, 0, 0)


def test_empty_cache_file_is_miss(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="fp")
    desc = describe("fib", "ideal", 1, n=10, threshold=5)
    path = cache.path(desc)
    os.makedirs(os.path.dirname(path))
    open(path, "wb").close()
    assert cache.get(desc) is None
    assert cache.misses == 1


def test_format_or_key_skew_is_miss(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="fp")
    desc = describe("fib", "ideal", 1, n=10, threshold=5)
    path = cache.path(desc)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as fh:
        pickle.dump({"format": 999, "key": cache.key(desc), "row": "bogus"},
                    fh)
    assert cache.get(desc) is None
    with open(path, "wb") as fh:
        pickle.dump({"format": 1, "key": "someone-elses-key", "row": "bogus"},
                    fh)
    assert cache.get(desc) is None
    assert cache.misses == 2 and cache.corrupt == 2


def test_put_never_pickles_live_kernel(tmp_path):
    from repro.bench.harness import execute_descriptor

    cache = ResultCache(str(tmp_path), fingerprint="fp")
    desc = describe("fib", "ideal", 1, n=10, threshold=5)
    row = execute_descriptor(desc)
    assert row.result is not None  # execute_descriptor attaches the live run
    cache.put(desc, row)
    cached = cache.get(desc)
    assert cached.result is None
    assert cached.vtime == row.vtime


def test_hit_rate_accounting(tmp_path):
    cache = ResultCache(str(tmp_path), fingerprint="fp")
    desc = describe("fib", "ideal", 1, n=10, threshold=5)
    assert cache.hit_rate == 0.0
    assert cache.get(desc) is None          # no such file: not "corrupt"
    with SweepExecutor(jobs=1, cache=cache) as ex, use_executor(ex):
        ex.run_one(desc)
    assert cache.get(desc) is not None
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 2 and stats["stores"] == 1
    assert stats["corrupt"] == 0
    assert stats["hit_rate"] == round(1 / 3, 4)
