"""Arrival-process and service-distribution generators (repro.workloads)."""

from __future__ import annotations

import math

import pytest

from repro.util.errors import ConfigurationError
from repro.workloads.arrivals import (
    Bursty,
    Diurnal,
    Poisson,
    ServiceSpec,
    arrival_times,
    service_demands,
)


# ------------------------------------------------------------------ generic
@pytest.mark.parametrize("spec", [
    Poisson(rate=5000.0, count=400),
    Bursty(rate_low=2000.0, rate_high=12000.0, count=400),
    Diurnal(rate_mean=5000.0, count=400, amplitude=0.7),
])
def test_streams_are_deterministic_sorted_and_sized(spec):
    a = arrival_times(spec, seed=11)
    b = arrival_times(spec, seed=11)
    assert a == b  # bit-identical, not approximately equal
    assert a != arrival_times(spec, seed=12)
    assert len(a) == spec.count
    assert all(t >= spec.start for t in a)
    assert a == sorted(a)


@pytest.mark.parametrize("spec", [
    Poisson(rate=1000.0, count=0),
    Bursty(rate_low=500.0, rate_high=2000.0, count=0),
    Diurnal(rate_mean=1000.0, count=0),
])
def test_zero_count_streams_are_empty(spec):
    assert arrival_times(spec, seed=1) == []


def test_start_offsets_every_arrival():
    base = arrival_times(Poisson(rate=2000.0, count=50), seed=3)
    shifted = arrival_times(Poisson(rate=2000.0, count=50, start=1.5), seed=3)
    assert shifted == pytest.approx([t + 1.5 for t in base])


# ------------------------------------------------------------------ poisson
def test_poisson_mean_rate_is_close():
    spec = Poisson(rate=4000.0, count=8000)
    times = arrival_times(spec, seed=5)
    observed = spec.count / times[-1]
    assert observed == pytest.approx(spec.rate, rel=0.05)


# ------------------------------------------------------------------- bursty
def test_bursty_mean_rate_and_burst_structure():
    spec = Bursty(rate_low=1000.0, rate_high=9000.0, count=8000,
                  dwell_low=3e-3, dwell_high=1e-3)
    times = arrival_times(spec, seed=7)
    observed = spec.count / times[-1]
    # The long-run rate is the dwell-weighted average of the two phases.
    mean_rate = (1000.0 * 3e-3 + 9000.0 * 1e-3) / 4e-3
    assert observed == pytest.approx(mean_rate, rel=0.10)
    # Burstiness: the squared coefficient of variation of inter-arrival
    # gaps must exceed a Poisson stream's (which has CV^2 == 1).
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    cv2 = sum((g - mean) ** 2 for g in gaps) / len(gaps) / mean**2
    assert cv2 > 1.3


# ------------------------------------------------------------------ diurnal
def test_diurnal_rate_modulates_with_phase():
    spec = Diurnal(rate_mean=5000.0, count=20000, amplitude=0.9,
                   period=50e-3)
    times = arrival_times(spec, seed=9)
    # Count arrivals in the rising half vs the falling half of each cycle:
    # with amplitude 0.9 the first half-period (sin > 0) must hold clearly
    # more arrivals than the second.
    half = spec.period / 2
    rising = sum(1 for t in times if (t % spec.period) < half)
    falling = len(times) - rising
    assert rising > 1.4 * falling


# ----------------------------------------------------------------- validation
@pytest.mark.parametrize("bad", [
    lambda: Poisson(rate=0.0, count=1),
    lambda: Poisson(rate=100.0, count=-1),
    lambda: Poisson(rate=100.0, count=1, start=-1.0),
    lambda: Bursty(rate_low=0.0, rate_high=100.0, count=1),
    lambda: Bursty(rate_low=10.0, rate_high=100.0, count=1, dwell_low=0.0),
    lambda: Diurnal(rate_mean=100.0, count=1, amplitude=1.0),
    lambda: Diurnal(rate_mean=100.0, count=1, period=0.0),
])
def test_invalid_arrival_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        arrival_times(bad(), seed=0)


# ------------------------------------------------------------------- service
def test_service_demands_shape_and_determinism():
    spec = ServiceSpec("exp", 300.0)
    d = service_demands(spec, count=50, hops=3, seed=2)
    assert d == service_demands(spec, count=50, hops=3, seed=2)
    assert d != service_demands(spec, count=50, hops=3, seed=3)
    assert len(d) == 50
    assert all(len(row) == 3 for row in d)
    assert all(x > 0.0 for row in d for x in row)


def test_fixed_service_is_constant():
    d = service_demands(ServiceSpec("fixed", 250.0), count=10, hops=2, seed=0)
    assert all(row == (250.0, 250.0) for row in d)


@pytest.mark.parametrize("spec", [
    ServiceSpec("exp", 400.0),
    ServiceSpec("lognormal", 400.0, shape=0.8),
    ServiceSpec("pareto", 400.0, shape=2.5),
])
def test_service_distribution_means(spec):
    d = service_demands(spec, count=20000, hops=1, seed=4)
    mean = sum(x for (x,) in d) / len(d)
    assert mean == pytest.approx(spec.mean, rel=0.08)


def test_pareto_tail_is_heavier_than_exp():
    n = 20000
    exp = sorted(x for (x,) in
                 service_demands(ServiceSpec("exp", 400.0), n, 1, 6))
    par = sorted(x for (x,) in
                 service_demands(ServiceSpec("pareto", 400.0, shape=1.5),
                                 n, 1, 6))
    p999 = math.ceil(0.999 * n) - 1
    assert par[p999] > 2.0 * exp[p999]


@pytest.mark.parametrize("bad", [
    lambda: ServiceSpec("gaussian", 100.0),
    lambda: ServiceSpec("exp", 0.0),
    lambda: ServiceSpec("pareto", 100.0, shape=1.0),
    lambda: ServiceSpec("lognormal", 100.0, shape=-0.5),
])
def test_invalid_service_specs_rejected(bad):
    with pytest.raises(ConfigurationError):
        service_demands(bad(), count=1, hops=1, seed=0)


def test_service_demands_input_validation():
    with pytest.raises(ConfigurationError):
        service_demands(ServiceSpec(), count=1, hops=0, seed=0)
    with pytest.raises(ConfigurationError):
        service_demands(ServiceSpec(), count=-1, hops=1, seed=0)
    assert service_demands(ServiceSpec(), count=0, hops=1, seed=0) == []
