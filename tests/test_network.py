"""Unit tests for the machine cost model and presets."""

import pytest

from repro.machine.network import Machine, MachineParams
from repro.machine.presets import MACHINE_PRESETS, make_machine
from repro.machine.topology import BusTopology, HypercubeTopology
from repro.util.errors import ConfigurationError, TopologyError


def test_params_reject_negative():
    with pytest.raises(ConfigurationError):
        MachineParams(alpha=-1.0)
    with pytest.raises(ConfigurationError):
        MachineParams(work_unit_time=-1e-9)


def test_scaled_returns_modified_copy():
    p = MachineParams(alpha=100e-6)
    q = p.scaled(alpha=5e-6)
    assert q.alpha == 5e-6
    assert p.alpha == 100e-6
    assert q.beta == p.beta


def test_compute_time_linear():
    m = Machine("m", BusTopology(2), MachineParams(work_unit_time=2e-6))
    assert m.compute_time(100) == pytest.approx(200e-6)
    assert m.compute_time(0) == 0.0


def test_local_transit_uses_local_alpha():
    params = MachineParams(alpha=1.0, beta=1.0, local_alpha=5e-6)
    m = Machine("m", BusTopology(4), params)
    assert m.transit_time(2, 2, 10_000, 0.0) == pytest.approx(5e-6)


def test_remote_transit_alpha_beta():
    params = MachineParams(alpha=100e-6, beta=1e-6, per_hop=0.0, bus_bandwidth=0.0)
    m = Machine("m", BusTopology(4), params)
    assert m.transit_time(0, 1, 50, 0.0) == pytest.approx(100e-6 + 50e-6)


def test_hop_cost_applies_beyond_first_hop():
    params = MachineParams(alpha=10e-6, beta=0.0, per_hop=7e-6)
    m = Machine("m", HypercubeTopology(8), params)
    one_hop = m.transit_time(0, 1, 0, 0.0)      # hops=1
    three_hops = m.transit_time(0, 7, 0, 0.0)   # hops=3
    assert one_hop == pytest.approx(10e-6)
    assert three_hops == pytest.approx(10e-6 + 2 * 7e-6)


def test_bus_serialization_queues_messages():
    params = MachineParams(alpha=0.0, beta=0.0, per_hop=0.0, bus_bandwidth=1e6)
    m = Machine("m", BusTopology(4), params)
    # Two 1000-byte messages at t=0: second waits for the first's bus slot.
    t_first = m.transit_time(0, 1, 1000, 0.0)
    t_second = m.transit_time(2, 3, 1000, 0.0)
    assert t_first == pytest.approx(1e-3)
    assert t_second == pytest.approx(2e-3)
    m.reset()
    assert m.transit_time(0, 1, 1000, 0.0) == pytest.approx(1e-3)


def test_all_presets_construct_and_price_messages():
    for name, factory in MACHINE_PRESETS.items():
        n = 8 if "ipsc" in name or "ncube" in name else 6  # hypercubes: 2^k
        m = factory(n)
        assert m.num_pes == n
        t = m.transit_time(0, n - 1, 128, 0.0)
        assert t >= 0.0
        assert m.compute_time(1000) > 0 or name == "ideal"


def test_preset_relative_ordering():
    """The presets must preserve the architectural contrasts they model."""
    sym, ipsc = make_machine("symmetry", 8), make_machine("ipsc2", 8)
    # Message startup: shared-memory enqueue is much cheaper than hypercube send.
    assert sym.params.alpha * 5 < ipsc.params.alpha
    # The iPSC/2 node is faster than the Symmetry's 80386.
    assert ipsc.params.work_unit_time < sym.params.work_unit_time
    ideal = make_machine("ideal", 4)
    assert ideal.transit_time(0, 1, 10**6, 0.0) == 0.0


def test_make_machine_unknown_preset():
    with pytest.raises(ConfigurationError):
        make_machine("cray", 4)


def test_hypercube_presets_require_power_of_two():
    from repro.util.errors import TopologyError

    with pytest.raises(TopologyError):
        make_machine("ipsc2", 12)


PARAM_FIELDS = ("work_unit_time", "sched_overhead", "recv_overhead", "alpha",
                "beta", "per_hop", "local_alpha", "bus_bandwidth",
                "link_bandwidth")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x", True],
                         ids=["nan", "inf", "str", "bool"])
@pytest.mark.parametrize("field", PARAM_FIELDS)
def test_params_reject_non_finite_and_non_real_naming_the_field(field, bad):
    """A NaN latency used to run a tree to virtual time nan, and a string
    died as a TypeError that named no field."""
    params = make_machine("ipsc2", 4).params
    with pytest.raises(ConfigurationError, match=field):
        params.scaled(**{field: bad})


@pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
def test_make_machine_rejects_a_bool_pe_count(name):
    with pytest.raises(TopologyError, match="num_pes"):
        make_machine(name, True)


@pytest.mark.parametrize("sparse", ["no", 1, None])
def test_make_machine_sparse_must_be_a_bool(sparse):
    with pytest.raises(ConfigurationError, match="sparse"):
        make_machine("ipsc2", 4, sparse=sparse)
