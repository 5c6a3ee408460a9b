"""Synthetic-tree and histogram (distributed table) application tests."""

import pytest

from repro import make_machine
from repro.apps.histogram import run_histogram
from repro.apps.tree import TreeParams, run_tree, tree_seq


# ----------------------------------------------------------------------- tree
def test_tree_shape_deterministic():
    params = TreeParams(seed=3, max_depth=8)
    assert tree_seq(params) == tree_seq(params)


def test_tree_seed_changes_shape():
    a = tree_seq(TreeParams(seed=1, max_depth=9))
    b = tree_seq(TreeParams(seed=2, max_depth=9))
    assert a != b


def test_tree_depth_zero_is_single_leaf():
    assert tree_seq(TreeParams(seed=0, max_depth=0)) == (1, 1)


@pytest.mark.parametrize("balancer", ["local", "random", "central", "token", "acwn"])
def test_tree_parallel_counts_match(balancer):
    params = TreeParams(seed=5, max_depth=9, max_fanout=4, branch_bias=0.95)
    expected = tree_seq(params)
    answer, _ = run_tree(make_machine("ipsc2", 8), params, balancer=balancer)
    assert answer == expected


def test_tree_nodes_bound_leaves():
    params = TreeParams(seed=12, max_depth=10)
    nodes, leaves = tree_seq(params)
    assert 1 <= leaves <= nodes


def test_tree_balancing_beats_local_on_time():
    params = TreeParams(seed=7, max_depth=10, max_fanout=5, branch_bias=0.96)
    _, local = run_tree(make_machine("ipsc2", 8), params, balancer="local")
    _, acwn = run_tree(make_machine("ipsc2", 8), params, balancer="acwn")
    assert acwn.time < local.time


@pytest.mark.parametrize("field,bad", [
    ("max_fanout", 0), ("max_fanout", -2), ("max_fanout", 2.5),
    ("max_depth", -1), ("max_depth", 3.0),
    ("branch_bias", float("nan")), ("branch_bias", -0.1), ("branch_bias", 1.5),
    ("node_work", -1.0), ("node_work", float("nan")),
    ("seed", 1.5), ("seed", "7"),
])
def test_tree_params_validated_by_field(field, bad):
    from repro.util.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=rf"TreeParams\.{field}\b"):
        TreeParams(**{field: bad})


def test_paper_scale_tree_shapes_pinned():
    """The three parameter sets the harness ships still construct under
    validation and still describe the same trees."""
    from repro.bench.experiments import _sizes
    from repro.bench.harness import APPS

    assert tree_seq(APPS["tree"].defaults["params"]) == (3636, 2616)
    assert tree_seq(_sizes("quick")["tree"]["params"]) == (257, 173)
    t4 = TreeParams(seed=42, max_depth=14, max_fanout=5, branch_bias=0.99,
                    node_work=200.0)
    assert tree_seq(t4) == (9418, 6242)
    # A1/A4 rebuild the first two by hand; equal params, equal cache key.
    assert TreeParams(seed=7, max_depth=12, max_fanout=6,
                      branch_bias=0.98) == APPS["tree"].defaults["params"]


def test_memoised_fanout_equals_recomputation():
    """``_fanout`` is memoised; over a whole tree it must answer exactly
    what the undecorated function computes, and ``==``-equal parameter
    twins share entries (the memo is keyed by value, not identity)."""
    from repro.apps.tree import _child_id, _fanout

    raw = _fanout.__wrapped__
    params = TreeParams(seed=9, max_depth=9, max_fanout=5, branch_bias=0.97)
    twin = TreeParams(seed=9, max_depth=9, max_fanout=5, branch_bias=0.97)
    assert twin is not params and twin == params
    visited = 0
    stack = [(0, 0)]
    while stack:
        node_id, depth = stack.pop()
        visited += 1
        k = _fanout(params, node_id, depth)
        assert k == raw(params, node_id, depth)
        stack.extend((_child_id(node_id, i), depth + 1) for i in range(k))
    assert visited == tree_seq(params)[0] > 100
    before = _fanout.cache_info()
    assert tree_seq(twin) == tree_seq(params)
    after = _fanout.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2 * visited
    # The memo is bounded and lives on the function, not on the params
    # object (which is pickled into descriptors and hashed into keys).
    assert before.maxsize is not None
    assert vars(params) == vars(TreeParams(seed=9, max_depth=9, max_fanout=5,
                                           branch_bias=0.97))


# ------------------------------------------------------------------ histogram
@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("symmetry", 4), ("ipsc2", 8),
])
def test_histogram_roundtrip_no_mismatches(machine_name, pes):
    (inserted, found, bad), _ = run_histogram(
        make_machine(machine_name, pes), items=80, workers=5
    )
    assert inserted == found == 80
    assert bad == 0


def test_histogram_more_workers_than_items():
    (inserted, found, bad), _ = run_histogram(
        make_machine("ideal", 4), items=3, workers=8
    )
    assert inserted == found == 3
    assert bad == 0


def test_histogram_throughput_improves_with_pes():
    _, r1 = run_histogram(make_machine("ipsc2", 1), items=128, workers=8)
    _, r8 = run_histogram(make_machine("ipsc2", 8), items=128, workers=8)
    assert r8.time < r1.time


def test_histogram_shards_are_populated():
    (_, _, bad), result = run_histogram(
        make_machine("ipsc2", 8), items=64, workers=4
    )
    assert bad == 0
    kernel = result.kernel
    sizes = [len(kernel.sharing.shard("hist", pe)) for pe in range(8)]
    assert sum(sizes) == 64
    assert sum(1 for s in sizes if s > 0) >= 3
