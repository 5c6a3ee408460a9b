"""Load-balancing strategies: placement behavior and invariants."""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.balance import make_balancer
from repro.util.errors import ConfigurationError


class Worker(Chare):
    def __init__(self, parent, i):
        self.charge(200)
        self.send(parent, "ran_on", i, self.my_pe)


class FanoutMain(Chare):
    def __init__(self, n):
        self.n = n
        self.placements = {}
        for i in range(n):
            self.create(Worker, self.thishandle, i)

    @entry
    def ran_on(self, i, pe):
        self.placements[i] = pe
        if len(self.placements) == self.n:
            self.exit(self.placements)


def _run(balancer, pes=8, n=64, machine="ipsc2", seed=0, **kw):
    kernel = Kernel(make_machine(machine, pes), balancer=balancer, seed=seed, **kw)
    result = kernel.run(FanoutMain, n)
    return result, kernel


def test_make_balancer_unknown():
    with pytest.raises(ConfigurationError):
        make_balancer("psychic")


def test_local_keeps_everything_on_creator():
    result, _ = _run("local")
    assert set(result.result.values()) == {0}


def test_random_spreads_over_all_pes():
    result, _ = _run("random", n=128)
    used = set(result.result.values())
    assert len(used) >= 6  # 128 seeds over 8 PEs: near-certainly most PEs


def test_roundrobin_is_cyclic():
    result, _ = _run("roundrobin", n=16)
    # Creator is PE0 with cursor starting at 0: seeds go 1,2,...,7,0,1,...
    expected = {i: (i + 1) % 8 for i in range(16)}
    assert result.result == expected


def test_central_distributes_beyond_manager():
    result, kernel = _run("central", n=64)
    used = set(result.result.values())
    assert len(used) >= 4
    # All seeds transited PE0; remote assignments were recorded.
    assert kernel.balancer.seeds_placed_remote > 0


def test_token_work_arrives_at_thieves():
    result, kernel = _run("token", n=64)
    used = set(result.result.values())
    assert len(used) > 1, "stealing never moved any work"
    st = result.stats
    attempts = sum(r.steal_attempts for r in st.pe_rows)
    satisfied = sum(r.steals_satisfied for r in st.pe_rows)
    assert attempts >= satisfied > 0


def test_acwn_spreads_and_bounds_hops():
    result, kernel = _run("acwn", n=128)
    used = set(result.result.values())
    assert len(used) >= 4
    max_hops = kernel.balancer.max_hops
    assert max_hops >= 2  # hypercube diameter of 8 PEs is 3


def test_acwn_threshold_validation():
    with pytest.raises(ConfigurationError):
        make_balancer("acwn", threshold=0)


@pytest.mark.parametrize("name,kwargs,field", [
    ("token", {"backoff": float("nan")}, "backoff"),
    ("token", {"backoff": -1e-6}, "backoff"),
    ("token", {"max_grab": 0}, "max_grab"),
    ("token", {"max_grab": 2.5}, "max_grab"),
    ("token", {"max_attempts": -1}, "max_attempts"),
    ("acwn", {"threshold": float("nan")}, "threshold"),
    ("acwn", {"max_hops": -1}, "max_hops"),
    ("gradient", {"threshold": float("nan")}, "threshold"),
    ("gradient", {"radius": 1.5}, "radius"),
    ("gradient", {"max_hops": -1}, "max_hops"),
])
def test_balancer_arguments_fail_where_given_naming_the_field(name, kwargs, field):
    """A NaN backoff used to run a tree to time nan, and a NaN threshold
    silently never moved a seed."""
    with pytest.raises(ConfigurationError, match=field):
        make_balancer(name, **kwargs)


def test_unknown_balancer_argument_names_the_strategy_and_the_argument():
    with pytest.raises(ConfigurationError, match="'random'.*'foo'"):
        make_balancer("random", foo=1)


def test_kernel_rejects_a_balancer_that_is_not_one():
    with pytest.raises(ConfigurationError, match="balancer"):
        Kernel(make_machine("ipsc2", 4), balancer=object())


def test_answers_identical_across_balancers():
    answers = set()
    for strategy in ("local", "random", "roundrobin", "central", "token", "acwn"):
        result, _ = _run(strategy, n=32)
        answers.add(tuple(sorted(result.result.keys())))
    assert len(answers) == 1


def test_all_balancers_single_pe():
    for strategy in ("local", "random", "roundrobin", "central", "token", "acwn"):
        result, _ = _run(strategy, pes=1, n=8, machine="ideal")
        assert set(result.result.values()) == {0}


def test_note_load_piggyback_updates_table():
    _, kernel = _run("acwn", n=32)
    bal = kernel.balancer
    known_entries = sum(len(d) for d in bal.known.values())
    assert known_entries > 0


def test_explicit_balancer_instance_accepted():
    bal = make_balancer("acwn", threshold=3)
    kernel = Kernel(make_machine("ipsc2", 4), balancer=bal)
    result = kernel.run(FanoutMain, 16)
    assert len(result.result) == 16
    assert kernel.balancer is bal


def test_pinned_seeds_never_stolen():
    class PinnedMain(Chare):
        def __init__(self, n):
            self.n = n
            self.placements = {}
            for i in range(n):
                self.create(Worker, self.thishandle, i, pe=0)  # all pinned

        @entry
        def ran_on(self, i, pe):
            self.placements[i] = pe
            if len(self.placements) == self.n:
                self.exit(self.placements)

    kernel = Kernel(make_machine("ipsc2", 8), balancer="token", seed=1)
    result = kernel.run(PinnedMain, 24)
    assert set(result.result.values()) == {0}
