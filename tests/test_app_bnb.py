"""TSP and knapsack branch-and-bound application tests."""

import itertools
import pickle
import sys

import pytest

from repro import make_machine
from repro.apps import tsp
from repro.apps.knapsack import KnapsackInstance, knapsack_seq, run_knapsack
from repro.apps.tsp import (
    TspInstance,
    _child_probe,
    _greedy_tour,
    _lower_bound,
    _visited_mask,
    tsp_seq,
    run_tsp,
)
from repro.faults import FaultConfig
from repro.util.errors import ConfigurationError, TopologyError
from repro.util.rng import RngStream


def _oracle_bound(inst, path, cost):
    """The O(n^2 log n) bound the row/mask version replaced, kept verbatim."""
    n = inst.n
    visited = set(path)
    frontier = {path[-1], path[0]}
    est = 2 * cost
    for city in range(n):
        if city in visited and city not in frontier:
            continue
        edges = sorted(
            inst.dist[city][other]
            for other in range(n)
            if other != city and (other not in visited or other in frontier)
        )
        if city in frontier:
            est += edges[0] if edges else 0
        else:
            est += sum(edges[:2])
    return est // 2


def _bound(inst, path, cost):
    first, last = path[0], path[-1]
    interior = _visited_mask(path) & ~(1 << first | 1 << last)
    return _lower_bound(inst, interior, first, last, cost)


# ------------------------------------------------------------------ instances
def test_tsp_instance_symmetric_and_deterministic():
    a = TspInstance.random(8, seed=5)
    b = TspInstance.random(8, seed=5)
    assert a == b
    for i in range(8):
        assert a.dist[i][i] == 0
        for j in range(8):
            assert a.dist[i][j] == a.dist[j][i]


def test_tsp_lower_bound_admissible():
    inst = TspInstance.random(7, seed=2)
    best, _ = tsp_seq(inst)
    assert _bound(inst, (0,), 0) <= best
    assert _greedy_tour(inst) >= best


def test_tsp_bound_equals_sorting_oracle():
    draws = 0
    for n in (1, 2, 3, 4, 5, 8, 10, 12):
        rng = RngStream(11, "bound-oracle", n).generator
        for _ in range(30):
            inst = TspInstance.random(n, int(rng.integers(1 << 30)))
            cities = list(range(n))
            for _ in range(100):
                rng.shuffle(cities)
                # Any start city; lengths 1 (first == last) .. n - 1.
                path = tuple(cities[: int(rng.integers(1, max(2, n)))])
                cost = int(rng.integers(0, 500))
                assert _bound(inst, path, cost) == _oracle_bound(inst, path, cost)
                draws += 1
            for path in ((0,), tuple(cities[: max(1, n - 1)])):
                assert _bound(inst, path, 7) == _oracle_bound(inst, path, 7)
    assert draws >= 20_000
    assert _bound(TspInstance(((0,),)), (0,), 5) == 5  # n = 1: empty row


def test_tsp_child_probe_equals_lower_bound():
    """One probe per expanding node gives every child's bound in O(1)."""
    draws = lone_edge = start_is_end = 0
    for n in (2, 3, 4, 5, 8, 10, 12):
        rng = RngStream(13, "child-probe", n).generator
        for _ in range(40):
            inst = TspInstance.random(n, int(rng.integers(1 << 30)))
            cities = list(range(n))
            for _ in range(25):
                rng.shuffle(cities)
                # Any start city; lengths 1 (first == last) .. n - 1.
                path = tuple(cities[: int(rng.integers(1, n))])
                cost = int(rng.integers(0, 500))
                first, last = path[0], path[-1]
                interior = _visited_mask(path) & ~(1 << first)
                total, second = _child_probe(inst, interior, first)
                start_is_end += first == last
                for city in cities[len(path):]:
                    child_cost = cost + inst.dist[last][city]
                    fast = (2 * child_cost + total - second[city]) // 2
                    assert fast == _lower_bound(inst, interior, first, city, child_cost)
                    assert fast == _oracle_bound(inst, path + (city,), child_cost)
                    lone_edge += not second[city]   # only `first` left to reach
                    draws += 1
    assert draws >= 20_000 and lone_edge and start_is_end


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_tsp_bound_admissible_against_brute_force(n):
    rng = RngStream(12, "bound-brute", n).generator
    for seed in range(3):
        inst = TspInstance.random(n, seed)
        for _ in range(20):
            k = int(rng.integers(1, n))
            path = tuple(int(c) for c in rng.permutation(n)[:k])
            cost = sum(inst.dist[a][b] for a, b in zip(path, path[1:]))
            rest = [c for c in range(n) if c not in path]
            best = min(
                sum(inst.dist[a][b] for a, b in zip(tour, tour[1:] + tour[:1]))
                for tour in (path + perm for perm in itertools.permutations(rest))
            )
            assert _bound(inst, path, cost) <= best


def test_tsp_neighbour_rows_do_not_leak_into_identity():
    inst = TspInstance.random(9, seed=3)
    twin = TspInstance.random(9, seed=3)
    paths = [(0,), (0, 4), (2, 7, 1), (0, 1, 2, 3, 4, 5, 6, 7)]
    bounds = [_bound(inst, p, 10) for p in paths]  # fills inst's rows only
    assert "neighbour_rows" in vars(inst) and "neighbour_rows" not in vars(twin)
    assert inst == twin and hash(inst) == hash(twin)
    assert inst.__wire_size__() == twin.__wire_size__() == 4 * 9 * 9
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst
    assert [_bound(twin, p, 10) for p in paths] == bounds
    assert [_bound(copy, p, 10) for p in paths] == bounds


def test_tsp_seq_node_counts_pinned():
    """Search order is part of the contract: the one DFS must not drift."""
    assert tsp_seq(TspInstance.random(10, 0)) == (223, 382)
    assert tsp_seq(TspInstance.random(8, 0)) == (299, 209)
    assert tsp_seq(TspInstance(((0,),))) == (0, 1)


# ----------------------------------------------------------------- validation
def test_tsp_rejects_bound_slack_below_one():
    # 0.5 would seed the exact-answer accumulator below every tour: the run
    # reports 150 on this instance, whose optimum is 299.
    with pytest.raises(ConfigurationError, match="bound_slack"):
        run_tsp(make_machine("ideal", 1), TspInstance.random(8, 0), bound_slack=0.5)


def test_tsp_rejects_negative_grain():
    with pytest.raises(ConfigurationError, match="grain"):
        run_tsp(make_machine("ideal", 1), n=6, grain=-1)


@pytest.mark.parametrize("call,error,field", [
    # int(greedy * inf) died inside TspMain as a bare OverflowError.
    (lambda: run_tsp(make_machine("ideal", 1), n=6, bound_slack=float("inf")),
     ConfigurationError, "bound_slack"),
    # Ran (never reaching a sequential tail) where run_tsp already refused.
    (lambda: run_knapsack(make_machine("ideal", 1), n=8, grain=-1),
     ConfigurationError, "grain"),
    # Silently built 2 PEs.
    (lambda: make_machine("symmetry", 2.5), TopologyError, "num_pes"),
    # TypeError: '<' not supported between instances of 'str' and 'int'.
    (lambda: make_machine("ncube2", "4"), TopologyError, "num_pes"),
    (lambda: make_machine("hetero", 2.5), TopologyError, "num_pes"),
], ids=["tsp-inf-slack", "knapsack-grain", "float-pes", "str-pes", "hetero-pes"])
def test_bad_input_fails_early_and_names_the_field(call, error, field):
    with pytest.raises(error, match=field):
        call()


@pytest.mark.parametrize("n", [0, -3])
def test_tsp_rejects_empty_instance(n):
    with pytest.raises(ConfigurationError, match="n must be >= 1"):
        run_tsp(make_machine("ideal", 1), n=n)


@pytest.mark.parametrize("dist", [
    (),                                  # empty
    ((0, 1, 2), (5, 0, 3)),              # not square
    ((0, 1), (2, 0)),                    # asymmetric
    ((1, 2), (2, 0)),                    # non-zero diagonal
    ((0, -4), (-4, 0)),                  # negative entry
])
def test_tsp_rejects_malformed_dist(dist):
    with pytest.raises(ConfigurationError, match="dist"):
        TspInstance(dist)


def test_knapsack_instance_sorted_by_density():
    inst = KnapsackInstance.random(12, seed=3)
    densities = [v / w for v, w in zip(inst.values, inst.weights)]
    assert densities == sorted(densities, reverse=True)
    assert 0 < inst.capacity < sum(inst.weights)


def test_knapsack_seq_matches_dp():
    inst = KnapsackInstance.random(14, seed=1)
    best, _ = knapsack_seq(inst)
    # Independent check: classic DP over capacity.
    dp = [0] * (inst.capacity + 1)
    for w, v in zip(inst.weights, inst.values):
        for c in range(inst.capacity, w - 1, -1):
            dp[c] = max(dp[c], dp[c - w] + v)
    assert best == dp[inst.capacity]


# ------------------------------------------------------------------- parallel
@pytest.mark.parametrize("machine_name,pes,queueing", [
    ("ideal", 1, "prio"),
    ("symmetry", 4, "fifo"),
    ("ipsc2", 8, "prio"),
    ("ipsc2", 8, "lifo"),
])
def test_tsp_parallel_finds_optimum(machine_name, pes, queueing):
    inst = TspInstance.random(8, seed=4)
    best_ref, _ = tsp_seq(inst)
    (best, nodes, pruned), _ = run_tsp(
        make_machine(machine_name, pes), inst, queueing=queueing
    )
    assert best == best_ref
    assert nodes >= 1


@pytest.mark.parametrize("propagation", ["eager", "lazy", "off"])
def test_tsp_optimum_independent_of_propagation(propagation):
    inst = TspInstance.random(8, seed=9)
    best_ref, _ = tsp_seq(inst)
    (best, _, _), _ = run_tsp(
        make_machine("ipsc2", 8), inst, propagation=propagation
    )
    assert best == best_ref


@pytest.mark.parametrize("grain", [0, 2, 5, 7])
def test_tsp_grain_invariant(grain):
    inst = TspInstance.random(8, seed=7)
    best_ref, _ = tsp_seq(inst)
    (best, _, _), _ = run_tsp(make_machine("ipsc2", 4), inst, grain=grain)
    assert best == best_ref


@pytest.mark.parametrize("kwargs", [
    {"queueing": "fifo"},
    {"queueing": "lifo"},
    {"queueing": "prio"},
    {"queueing": "bitprio"},
    {"balancer": "acwn"},                # forwarded legs (Envelope.forwarded)
    {"faults": FaultConfig(drop_prob=0.05, dup_prob=0.05)},   # retransmissions
], ids=["fifo", "lifo", "prio", "bitprio", "acwn", "faults"])
def test_tsp_seed_priority_is_the_nodes_bound(monkeypatch, kwargs):
    """Whatever route a seed takes, it arrives carrying its own bound."""
    inst = TspInstance.random(9, 3)
    checked = []

    class CheckedNode(tsp.TspNode):
        def __init__(self, path, cost):
            if len(path) > 1:
                assert self.my_priority == _bound(inst, path, cost)
                checked.append(path)
            super().__init__(path, cost)

    # TspMain and TspNode both look the class up in the module at call time.
    monkeypatch.setattr(tsp, "TspNode", CheckedNode)
    (best, _, _), result = run_tsp(
        make_machine("ipsc2", 8), inst, grain=2, seed=3, **kwargs)
    assert best == tsp_seq(inst)[0]
    assert len(checked) == len(set(checked)) > 100   # each node exactly once
    if "balancer" in kwargs:
        assert sum(result.kernel.pes[pe].seeds_forwarded_in for pe in range(8))
    if "faults" in kwargs:
        assert result.stats.retries and result.stats.dups_suppressed


def test_tsp_bound_call_count_is_the_contract(monkeypatch):
    """A bound is evaluated once per tree edge, by the parent: the nodes of a
    run call ``_lower_bound`` once (the root); the rest is the sequential
    tail.  Simulated results are the parent commit's, pinned as literals."""
    calls = {}
    lower_bound = tsp._lower_bound

    def counted(*args):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return lower_bound(*args)

    monkeypatch.setattr(tsp, "_lower_bound", counted)
    answer, result = run_tsp(make_machine("ipsc2", 8), n=10, grain=4)
    assert calls == {"__init__": 1, "dfs": 194}      # was 1005 + 194
    assert answer == (223, 555, 310)
    assert result.time.hex() == "0x1.285d414ea9dbfp-6"
    assert result.stats.counted_sent == 420


def test_tsp_loose_incumbent_still_exact():
    inst = TspInstance.random(8, seed=1)
    best_ref, _ = tsp_seq(inst)
    (best, nodes_loose, _), _ = run_tsp(
        make_machine("ipsc2", 8), inst, bound_slack=2.0
    )
    (best2, nodes_tight, _), _ = run_tsp(
        make_machine("ipsc2", 8), inst, bound_slack=1.0
    )
    assert best == best2 == best_ref
    assert nodes_loose >= nodes_tight  # weaker initial bound, more work


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("ipsc2", 8), ("symmetry", 16),
])
def test_knapsack_parallel_finds_optimum(machine_name, pes):
    inst = KnapsackInstance.random(18, seed=6)
    best_ref, _ = knapsack_seq(inst)
    (best, nodes), _ = run_knapsack(make_machine(machine_name, pes), inst, grain=8)
    assert best == best_ref


@pytest.mark.parametrize("grain", [0, 6, 18, 30])
def test_knapsack_grain_invariant(grain):
    inst = KnapsackInstance.random(16, seed=2)
    best_ref, _ = knapsack_seq(inst)
    (best, _), _ = run_knapsack(make_machine("ipsc2", 4), inst, grain=grain)
    assert best == best_ref


def test_knapsack_priority_search_expands_fewer_nodes():
    inst = KnapsackInstance.random(20, seed=0)
    (_, nodes_fifo), _ = run_knapsack(
        make_machine("ipsc2", 8), inst, grain=8, queueing="fifo"
    )
    (_, nodes_prio), _ = run_knapsack(
        make_machine("ipsc2", 8), inst, grain=8, queueing="prio"
    )
    assert nodes_prio <= nodes_fifo


def test_monotonic_sharing_prunes_nodes():
    """The T7 claim at test scale: no propagation => more expanded nodes."""
    inst = TspInstance.random(9, seed=3)
    (_, nodes_eager, _), _ = run_tsp(
        make_machine("ipsc2", 8), inst, grain=2, bound_slack=1.6,
        queueing="fifo", propagation="eager",
    )
    (_, nodes_off, _), _ = run_tsp(
        make_machine("ipsc2", 8), inst, grain=2, bound_slack=1.6,
        queueing="fifo", propagation="off",
    )
    assert nodes_off >= nodes_eager
