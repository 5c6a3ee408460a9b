"""Run descriptors: the unit of work of the parallel sweep executor.

Every measurement the experiment suite takes is a pure, deterministic
function of its configuration — app name, machine preset, PE count, seed
and runner parameters.  A :class:`RunDescriptor` captures exactly that
configuration in a picklable, canonically-hashable form, so one run can
be (a) shipped to a warm worker process, (b) keyed into the on-disk
result cache, and (c) named precisely in failure reports.

Descriptors must stay *declarative*: no live objects.  Two parameter
spellings are canonicalised specially so the ablations can route through
the executor:

* ``balancer={"name": "acwn", "threshold": 2, ...}`` — constructed via
  :func:`repro.balance.make_balancer` at execution time.
* ``machine_scaled={"link_bandwidth": 2.8e6}`` — applied to the machine's
  cost model via ``MachineParams.scaled`` at execution time.

What a run records is two params and nothing else: ``trace_events``
(event kinds to log and export, or ``None`` for no recorder at all) and
``metrics`` (the telemetry snapshot interval).  An unobserved descriptor
has neither, so its key is the one it always had.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Tuple

from repro.util.errors import ConfigurationError
from repro.util.hashing import stable_digest

__all__ = ["RunDescriptor", "canonical_value"]


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to the hashable vocabulary of ``stable_digest``.

    Scalars pass through; dataclasses (TreeParams, MdParams, FaultConfig,
    TspInstance, ...) become tagged field tuples; lists/tuples/dicts
    recurse.  Anything else is rejected — descriptors must stay
    declarative so their hash is meaningful.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return (
            "@dc",
            type(value).__qualname__,
            tuple(
                (f.name, canonical_value(getattr(value, f.name)))
                for f in fields(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        tag = "@list" if isinstance(value, list) else "@tuple"
        return (tag, tuple(canonical_value(v) for v in value))
    if isinstance(value, dict):
        return (
            "@dict",
            tuple(sorted((str(k), canonical_value(v)) for k, v in value.items())),
        )
    raise ConfigurationError(
        f"run descriptor parameter of type {type(value).__name__!r} is not "
        "canonicalisable; use scalars, dataclasses, tuples, lists or dicts"
    )


@dataclass(frozen=True)
class RunDescriptor:
    """One independent (app, machine, P, params, seed) simulation run."""

    app: str
    machine: str
    num_pes: int
    seed: int
    #: Normalised runner kwargs, sorted by name (includes queueing/balancer).
    params: Tuple[Tuple[str, Any], ...] = ()
    #: ``MachineParams.scaled`` overrides applied after ``make_machine``.
    machine_scaled: Tuple[Tuple[str, Any], ...] = ()

    # ------------------------------------------------------------- display
    @property
    def queueing(self) -> str:
        return dict(self.params).get("queueing", "fifo")

    @property
    def balancer_label(self) -> str:
        balancer = dict(self.params).get("balancer", "-")
        if isinstance(balancer, dict):
            return str(balancer.get("name", "custom"))
        return str(balancer)

    def label(self) -> str:
        """Compact human-readable identity for progress lines and errors."""
        extras = []
        if self.queueing != "fifo":
            extras.append(self.queueing)
        if self.balancer_label not in ("-", "random"):
            extras.append(self.balancer_label)
        suffix = f" {'/'.join(extras)}" if extras else ""
        return f"{self.app}@{self.machine} P={self.num_pes}{suffix}"

    # ------------------------------------------------------------- hashing
    def canonical(self) -> Tuple[Any, ...]:
        """Stable, hashable projection of the full configuration."""
        return (
            "run-v1",
            self.app,
            self.machine,
            int(self.num_pes),
            int(self.seed),
            tuple((k, canonical_value(v)) for k, v in self.params),
            tuple((k, canonical_value(v)) for k, v in self.machine_scaled),
        )

    def key(self, fingerprint: str = "") -> str:
        """Content-addressed cache key: descriptor plus code fingerprint."""
        return stable_digest((fingerprint, self.canonical()))
