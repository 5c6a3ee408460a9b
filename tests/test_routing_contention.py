"""Deterministic routing and the link-contention model."""

import pytest
from hypothesis import given, strategies as st

import numpy as np

from repro.machine.network import Machine, MachineParams
from repro.machine.presets import make_machine
from repro.machine.topology import (
    BusTopology,
    HypercubeTopology,
    Mesh2DTopology,
)

ROUTED = [
    HypercubeTopology(16),
    Mesh2DTopology(12, rows=3, cols=4),
]


@pytest.mark.parametrize("topo", ROUTED, ids=lambda t: t.name)
def test_routes_are_valid_paths(topo):
    for src in range(topo.num_pes):
        for dst in range(topo.num_pes):
            route = topo.route(src, dst)
            assert len(route) == topo.distance(src, dst)
            cur = src
            for a, b in route:
                assert a == cur
                assert topo.distance(a, b) == 1, "route uses a non-link"
                cur = b
            assert cur == dst


def test_bus_has_no_route():
    assert BusTopology(4).route(0, 1) is None


def test_hypercube_route_is_dimension_ordered():
    topo = HypercubeTopology(8)
    assert topo.route(0b000, 0b101) == [(0b000, 0b001), (0b001, 0b101)]


def test_route_determinism():
    topo = Mesh2DTopology(16, rows=4, cols=4)
    assert topo.route(1, 14) == topo.route(1, 14)


# ------------------------------------------------------------------ contention
def _machine(link_bw: float) -> Machine:
    params = MachineParams(
        alpha=10e-6, beta=0.0, per_hop=0.0, link_bandwidth=link_bw
    )
    return Machine("m", HypercubeTopology(8), params)


def test_uncontended_matches_alpha_beta():
    m = _machine(0.0)
    assert m.transit_time(0, 1, 1000, 0.0) == pytest.approx(10e-6)


def test_single_message_contended_cost():
    m = _machine(1e6)  # 1 MB/s links -> 1 ms per 1000 bytes per link
    # 0 -> 3 is two links under e-cube routing.
    t = m.transit_time(0, 3, 1000, 0.0)
    assert t == pytest.approx(10e-6 + 2e-3)


def test_messages_queue_on_shared_link():
    m = _machine(1e6)
    first = m.transit_time(0, 1, 1000, 0.0)
    second = m.transit_time(0, 1, 1000, 0.0)  # same link, same instant
    assert first == pytest.approx(10e-6 + 1e-3)
    assert second == pytest.approx(10e-6 + 2e-3)


def test_disjoint_links_do_not_interfere():
    m = _machine(1e6)
    a = m.transit_time(0, 1, 1000, 0.0)
    b = m.transit_time(2, 3, 1000, 0.0)   # different link entirely
    assert a == pytest.approx(b)


def test_opposite_directions_are_distinct_links():
    m = _machine(1e6)
    a = m.transit_time(0, 1, 1000, 0.0)
    b = m.transit_time(1, 0, 1000, 0.0)
    assert a == pytest.approx(b)  # no queuing across directions


def test_reset_clears_link_state():
    m = _machine(1e6)
    m.transit_time(0, 1, 1000, 0.0)
    m.reset()
    assert m.transit_time(0, 1, 1000, 0.0) == pytest.approx(10e-6 + 1e-3)


def test_contention_slows_alltoall_apps():
    """Sample sort (all-to-all) on contended vs ideal-link hypercubes."""
    from repro.apps.samplesort import run_samplesort

    plain = make_machine("ipsc2", 8)
    contended = make_machine("ipsc2", 8)
    contended.params = contended.params.scaled(link_bandwidth=2.8e6)
    (inp1, out1), r_plain = run_samplesort(plain, n=4096, workers=8)
    (inp2, out2), r_cont = run_samplesort(contended, n=4096, workers=8)
    assert np.array_equal(out1, np.sort(inp1))
    assert np.array_equal(out2, np.sort(inp2))
    assert r_cont.time > r_plain.time


@given(st.integers(min_value=1, max_value=5), st.data())
def test_property_hypercube_routes_span_all_pairs(dim, data):
    n = 2**dim
    topo = HypercubeTopology(n)
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    route = topo.route(src, dst)
    assert len(route) == bin(src ^ dst).count("1")
