"""Workload generators: declarative, seeded descriptions of offered load.

The apps under :mod:`repro.apps` are *closed-world* programs — they create
all their work up front and run to completion.  This package holds the
*open-loop* side: frozen-dataclass specs (picklable, canonicalisable into
:class:`repro.bench.descriptors.RunDescriptor` params) plus pure
``(spec, seed) -> samples`` generator functions, so the same spec always
yields the same stream regardless of ``--jobs`` sharding or cache state.
"""

from repro.workloads.arrivals import (
    Bursty,
    Diurnal,
    Poisson,
    ServiceSpec,
    arrival_times,
    offered_rate,
    service_demands,
)

__all__ = [
    "Poisson",
    "Bursty",
    "Diurnal",
    "ServiceSpec",
    "arrival_times",
    "service_demands",
    "offered_rate",
]
