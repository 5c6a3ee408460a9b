"""Gradient balancer + priolifo queueing + new machine presets."""

import pytest

from repro import Kernel, make_machine
from repro.apps.tree import TreeParams, run_tree, tree_seq
from repro.balance import make_balancer
from repro.queueing.strategies import LifoPriorityStrategy, make_strategy
from repro.util.errors import ConfigurationError
from tests.conftest import run_echo


# ------------------------------------------------------------------- gradient
def test_gradient_correctness_on_tree():
    params = TreeParams(seed=5, max_depth=9, max_fanout=4, branch_bias=0.95)
    expected = tree_seq(params)
    answer, result = run_tree(make_machine("ipsc2", 8), params, balancer="gradient")
    assert answer == expected
    assert result.stats.lb_control_msgs > 0  # gradient floods happened


def test_gradient_spreads_work():
    params = TreeParams(seed=7, max_depth=10, max_fanout=5, branch_bias=0.96)
    _, grad = run_tree(make_machine("ipsc2", 8), params, balancer="gradient")
    _, local = run_tree(make_machine("ipsc2", 8), params, balancer="local")
    assert grad.time < local.time
    busy = [r.busy_time for r in grad.stats.pe_rows]
    assert sum(1 for b in busy if b > 0) >= 4


def test_gradient_radius_validation():
    with pytest.raises(ConfigurationError):
        make_balancer("gradient", radius=0)


def test_gradient_single_pe():
    result = run_echo(make_machine("ideal", 1), n=4, balancer="gradient")
    assert len(result.result) == 4


def test_gradient_deterministic():
    params = TreeParams(seed=2, max_depth=9)
    a = run_tree(make_machine("ipsc2", 8), params, balancer="gradient", seed=3)[1]
    b = run_tree(make_machine("ipsc2", 8), params, balancer="gradient", seed=3)[1]
    assert a.time == b.time


# ------------------------------------------------------------------- priolifo
def test_priolifo_orders_by_priority_then_lifo():
    q = LifoPriorityStrategy()
    q.push("a", 5)
    q.push("b", 1)
    q.push("c", 5)
    q.push("d", 1)
    out = [q.pop() for _ in range(4)]
    assert out == ["d", "b", "c", "a"]


def test_priolifo_unprioritized_last():
    q = make_strategy("priolifo")
    q.push("none1", None)
    q.push("none2", None)
    q.push("prio", 100)
    assert q.pop() == "prio"
    assert q.pop() == "none2"  # LIFO among unprioritized
    assert q.pop() == "none1"


def test_priolifo_empty_pop_raises():
    from repro.util.errors import SchedulingError

    with pytest.raises(SchedulingError):
        make_strategy("priolifo").pop()


def test_priolifo_runs_programs():
    result = run_echo(make_machine("ipsc2", 4), n=8, queueing="priolifo")
    assert [i for i, _ in result.result] == list(range(8))


# -------------------------------------------------------------------- presets
def test_faster_cpu_same_network_is_more_comm_bound():
    """iPSC/2 with 5x faster nodes: lower parallel efficiency at the same
    fine grain (communication can't keep up) — the classic effect."""
    from repro.apps.nqueens import run_nqueens

    def eff(work_unit_time):
        def machine(pes):
            m = make_machine("ipsc2", pes)
            m.params = m.params.scaled(work_unit_time=work_unit_time)
            return m

        t1 = run_nqueens(machine(1), n=7, grainsize=2)[1].time
        tp = run_nqueens(machine(8), n=7, grainsize=2)[1].time
        return t1 / tp / 8

    ipsc2 = make_machine("ipsc2", 1).params.work_unit_time
    assert eff(ipsc2 / 5) < eff(ipsc2)
