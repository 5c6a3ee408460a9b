"""Unit tests for interconnect topologies."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.topology import (
    BusTopology,
    FullyConnectedTopology,
    HypercubeTopology,
    Mesh2DTopology,
)
from repro.util.errors import TopologyError

FAMILIES = {
    "bus": BusTopology,
    "full": FullyConnectedTopology,
    "mesh2d": Mesh2DTopology,
    "hypercube": HypercubeTopology,
}

# Explicit ids: each family keeps the test id it has always had.
ALL = [
    pytest.param("bus", {}, id="bus-kwargs0"),
    pytest.param("full", {}, id="full-kwargs1"),
    pytest.param("mesh2d", {}, id="mesh2d-kwargs3"),
    pytest.param("hypercube", {}, id="hypercube-kwargs5"),
]


def make_topology(name, num_pes, **kwargs):
    return FAMILIES[name](num_pes, **kwargs)


def _sizes_for(name):
    return [1, 2, 4, 8, 16] if name == "hypercube" else [1, 2, 5, 8, 12]


@pytest.mark.parametrize("name,kwargs", ALL)
def test_metric_axioms(name, kwargs):
    for n in _sizes_for(name):
        topo = make_topology(name, n, **kwargs)
        for i in range(n):
            assert topo.distance(i, i) == 0
            for j in range(n):
                assert topo.distance(i, j) == topo.distance(j, i)
                assert (topo.distance(i, j) == 0) == (i == j)


@pytest.mark.parametrize("name,kwargs", ALL)
def test_neighbors_are_one_hop_and_symmetric(name, kwargs):
    for n in _sizes_for(name):
        topo = make_topology(name, n, **kwargs)
        for i in range(n):
            for j in topo.neighbors(i):
                assert topo.distance(i, j) == 1
                assert i in topo.neighbors(j)
                assert j != i


def test_bus_everyone_is_neighbor():
    topo = BusTopology(6)
    assert topo.neighbors(2) == [0, 1, 3, 4, 5]
    assert topo.diameter() == 1
    assert FullyConnectedTopology(6).name == "full"


def test_mesh_shape_and_hops():
    topo = Mesh2DTopology(12, rows=3, cols=4)
    assert topo.distance(0, 11) == 2 + 3
    assert topo.neighbors(0) == [4, 1]
    assert topo.diameter() == 5
    with pytest.raises(TopologyError):
        Mesh2DTopology(12, rows=5)
    with pytest.raises(TopologyError):
        Mesh2DTopology(12, rows=3, cols=5)


def test_mesh_defaults_near_square():
    topo = Mesh2DTopology(12)
    assert topo.rows * topo.cols == 12
    assert topo.rows <= topo.cols


def test_hypercube_hops_are_popcount():
    topo = HypercubeTopology(16)
    assert topo.dimension == 4
    assert topo.distance(0b0000, 0b1111) == 4
    assert topo.distance(0b0101, 0b0100) == 1
    assert sorted(topo.neighbors(0)) == [1, 2, 4, 8]
    assert topo.diameter() == 4


def test_hypercube_requires_power_of_two():
    with pytest.raises(TopologyError):
        HypercubeTopology(12)
    HypercubeTopology(1)  # 2^0 is fine


def test_out_of_range_pe_raises():
    topo = HypercubeTopology(4)
    with pytest.raises(TopologyError):
        topo.route(0, 4)
    with pytest.raises(TopologyError):
        topo.neighbors(-1)


def test_zero_pes_rejected():
    with pytest.raises(TopologyError):
        BusTopology(0)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_property_hypercube_triangle_inequality(dim, data):
    n = 2**dim
    topo = HypercubeTopology(n)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert topo.distance(i, k) <= topo.distance(i, j) + topo.distance(j, k)


# ------------------------------------------------- closed forms (PR 6)
def _bfs_hops(topo, src):
    """Hop distances from ``src`` by breadth-first search over neighbors()."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for pe in frontier:
            for nb in topo.neighbors(pe):
                if nb not in dist:
                    dist[nb] = dist[pe] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


@pytest.mark.parametrize("name,kwargs", ALL)
def test_closed_form_hops_match_checked_hops(name, kwargs):
    """Each family's unchecked distance is the graph metric of its links:
    it equals a BFS over neighbors()."""
    for n in _sizes_for(name):
        topo = make_topology(name, n, **kwargs)
        for i in range(n):
            bfs = _bfs_hops(topo, i)
            for j in range(n):
                assert topo.distance(i, j) == bfs[j], (name, n, i, j)


@pytest.mark.parametrize("name,kwargs", ALL)
def test_closed_form_diameter_matches_brute_force(name, kwargs):
    """Per-family diameter() must equal the all-pairs max over hops."""
    for n in _sizes_for(name):
        topo = make_topology(name, n, **kwargs)
        brute = max(
            (topo.distance(i, j) for i in range(n) for j in range(n)),
            default=0,
        )
        assert topo.diameter() == brute, (name, n)


def test_diameter_is_constant_time_at_100k_pes():
    """No O(P^2) tables: diameter and hops at P=100k finish instantly."""
    big = 100_000
    cases = [
        Mesh2DTopology(big, rows=250, cols=400),
        HypercubeTopology(2**17),
        BusTopology(big),
    ]
    expected = {
        "mesh2d": 249 + 399,
        "hypercube": 17,
        "bus": 1,
    }
    for topo in cases:
        assert topo.diameter() == expected[topo.name]
        assert topo.distance(0, big - 1) == topo.distance(big - 1, 0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_bool_is_not_a_pe_count(name):
    with pytest.raises(TopologyError, match="num_pes"):
        FAMILIES[name](True)


@pytest.mark.parametrize("kwargs,field", [
    ({"rows": 0}, "rows"),
    ({"rows": -3}, "rows"),
    ({"cols": 0}, "cols"),
    ({"cols": -4}, "cols"),
    ({"rows": 2.0}, "rows"),
    ({"rows": True}, "rows"),
])
def test_mesh_shape_must_be_positive_integers(kwargs, field):
    """rows=0 used to die in ZeroDivisionError and rows=-3 was accepted."""
    with pytest.raises(TopologyError, match=field):
        Mesh2DTopology(12, **kwargs)
