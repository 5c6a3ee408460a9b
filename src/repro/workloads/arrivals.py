"""Seeded open-loop arrival processes and service-time distributions.

An *open-loop* workload offers requests at externally-determined virtual
times — the system's response never throttles the source, which is what
exposes saturation knees and tail-latency blowup (a closed-loop driver
self-limits and hides them).  Three arrival processes cover the classic
serving regimes:

* :class:`Poisson` — memoryless arrivals at a constant rate; the M/G/k
  baseline.
* :class:`Bursty` — a two-state Markov-modulated Poisson process (MMPP):
  the source alternates between a low-rate and a high-rate phase with
  exponentially distributed dwell times.  Same mean rate as a Poisson
  stream can hide bursts several times over capacity.
* :class:`Diurnal` — a sinusoidally modulated rate (daily ramp compressed
  onto the simulation's time scale), sampled by Lewis-Shedler thinning.

Specs are frozen dataclasses so they canonicalise directly into run
descriptors (:func:`repro.bench.descriptors.canonical_value`), and every
generator is a pure function of ``(spec, seed)`` via
:class:`repro.util.rng.RngStream` — byte-identical across ``--jobs``
sharding and cache replay.

Service demands are expressed in *work units* (converted to seconds by the
machine's ``work_unit_time``), drawn per request per pipeline stage from a
:class:`ServiceSpec` distribution (fixed / exponential / lognormal /
Pareto — the heavy-tailed one is where p99 stories live).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import List, Sequence, Tuple, Union

from repro.util.errors import ConfigurationError, need_int, need_real
from repro.util.rng import RngStream

__all__ = [
    "Poisson",
    "Bursty",
    "Diurnal",
    "ServiceSpec",
    "ArrivalSpec",
    "arrival_times",
    "service_demands",
]


# =============================================================== arrival specs
@dataclass(frozen=True)
class Poisson:
    """Constant-rate memoryless arrivals: ``count`` requests at ``rate``/s."""

    rate: float
    count: int
    start: float = 0.0

    def validate(self) -> None:
        need_real("Poisson rate", self.rate)
        need_int("Poisson count", self.count)
        need_real("Poisson start", self.start, strict=False)


@dataclass(frozen=True)
class Bursty:
    """Two-state MMPP: low/high rate phases with exponential dwell times.

    Mean offered rate is the dwell-weighted average of ``rate_low`` and
    ``rate_high``.
    """

    rate_low: float
    rate_high: float
    count: int
    dwell_low: float = 5e-3   # mean seconds spent in the low-rate phase
    dwell_high: float = 1e-3  # mean seconds spent in the high-rate phase
    start: float = 0.0

    def validate(self) -> None:
        for name in ("rate_low", "rate_high", "dwell_low", "dwell_high"):
            need_real(f"Bursty {name}", getattr(self, name))
        need_int("Bursty count", self.count)
        need_real("Bursty start", self.start, strict=False)


@dataclass(frozen=True)
class Diurnal:
    """Sinusoidally modulated rate: ``mean * (1 + amplitude*sin(2πt/period))``.

    A compressed "daily" traffic ramp.  ``amplitude`` is a fraction of the
    mean in ``[0, 1)``; generation uses thinning against the peak rate, so
    the stream is exact, not piecewise-approximated.
    """

    rate_mean: float
    count: int
    amplitude: float = 0.5
    period: float = 20e-3
    start: float = 0.0

    def validate(self) -> None:
        need_real("Diurnal rate_mean", self.rate_mean)
        if not (isinstance(self.amplitude, Real)
                and 0.0 <= self.amplitude < 1.0):
            raise ConfigurationError(
                f"Diurnal amplitude must be in [0, 1), got {self.amplitude!r}"
            )
        need_real("Diurnal period", self.period)
        need_int("Diurnal count", self.count)
        need_real("Diurnal start", self.start, strict=False)


ArrivalSpec = Union[Poisson, Bursty, Diurnal]


def _exp_sample(rng: RngStream, mean: float) -> float:
    # Inverse-CDF with U in [0, 1): log1p(-U) is exact near zero and never
    # takes log(0).
    return -mean * math.log1p(-rng.random())


def arrival_times(spec: ArrivalSpec, seed: int) -> List[float]:
    """Generate the full arrival-time list for ``spec`` (nondecreasing)."""
    spec.validate()
    rng = RngStream(seed, "arrivals", 0)
    times: List[float] = []
    t = spec.start
    if isinstance(spec, Poisson):
        mean_gap = 1.0 / spec.rate
        for _ in range(spec.count):
            t += _exp_sample(rng, mean_gap)
            times.append(t)
    elif isinstance(spec, Bursty):
        high = False
        dwell = _exp_sample(rng, spec.dwell_low)
        while len(times) < spec.count:
            rate = spec.rate_high if high else spec.rate_low
            gap = _exp_sample(rng, 1.0 / rate)
            if gap < dwell:
                # Next arrival lands inside the current phase.
                t += gap
                dwell -= gap
                times.append(t)
            else:
                # Phase ends first: advance to the switch point and resample
                # (the exponential's memorylessness makes this exact MMPP).
                t += dwell
                high = not high
                dwell = _exp_sample(
                    rng, spec.dwell_high if high else spec.dwell_low
                )
    elif isinstance(spec, Diurnal):
        peak = spec.rate_mean * (1.0 + spec.amplitude)
        omega = 2.0 * math.pi / spec.period
        while len(times) < spec.count:
            t += _exp_sample(rng, 1.0 / peak)
            lam = spec.rate_mean * (
                1.0 + spec.amplitude * math.sin(omega * (t - spec.start))
            )
            if rng.random() * peak < lam:
                times.append(t)
    else:  # pragma: no cover - guarded by the Union type
        raise ConfigurationError(f"unknown arrival spec {type(spec).__name__}")
    return times


# =============================================================== service times
@dataclass(frozen=True)
class ServiceSpec:
    """Per-stage service demand distribution, in kernel work units.

    ``dist`` is one of ``fixed`` / ``exp`` / ``lognormal`` / ``pareto``;
    ``mean`` is the distribution mean in work units.  ``shape`` is the
    second parameter where one exists: the lognormal's sigma (log-space
    standard deviation) or the Pareto tail index alpha (> 1; smaller =
    heavier tail).
    """

    dist: str = "exp"
    mean: float = 400.0
    shape: float = 1.0

    def validate(self) -> None:
        if self.dist not in ("fixed", "exp", "lognormal", "pareto"):
            raise ConfigurationError(
                f"unknown service distribution {self.dist!r}; "
                "expected fixed/exp/lognormal/pareto"
            )
        need_real("service mean", self.mean)
        if self.dist == "lognormal":
            need_real("lognormal sigma (shape)", self.shape, strict=False)
        if self.dist == "pareto":
            # alpha <= 1 has no finite mean.
            need_real("pareto alpha (shape)", self.shape, 1.0)

    def sample(self, rng: RngStream) -> float:
        if self.dist == "fixed":
            return self.mean
        if self.dist == "exp":
            return _exp_sample(rng, self.mean)
        if self.dist == "lognormal":
            sigma = self.shape
            mu = math.log(self.mean) - 0.5 * sigma * sigma
            # Box-Muller from the stream's uniforms keeps the draw count
            # deterministic (numpy's normal() consumes a variable number).
            u1 = rng.random()
            u2 = rng.random()
            while u1 <= 0.0:
                u1 = rng.random()
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            return math.exp(mu + sigma * z)
        # pareto
        alpha = self.shape
        scale = self.mean * (alpha - 1.0) / alpha
        return scale / (1.0 - rng.random()) ** (1.0 / alpha)


def service_demands(
    spec: ServiceSpec, count: int, hops: int, seed: int
) -> List[Tuple[float, ...]]:
    """Per-request, per-stage work-unit demands (``count`` x ``hops``).

    Each pipeline stage draws independently from ``spec`` (so a request's
    total expected demand is ``hops * spec.mean``).  One sequential stream
    in request order keeps the table a pure function of ``(spec, count,
    hops, seed)``.
    """
    spec.validate()
    hops = need_int("hops (pipeline stages per request)", hops, 1)
    count = need_int("request count", count)
    rng = RngStream(seed, "service", 0)
    return [
        tuple(spec.sample(rng) for _ in range(hops)) for _ in range(count)
    ]
