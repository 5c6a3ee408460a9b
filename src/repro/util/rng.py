"""Deterministic random-number streams.

Everything stochastic in the simulator (workload generation, random seed
placement, synthetic tree shapes) draws from an :class:`RngStream` derived
from a root seed plus a *purpose* string plus optional integer keys (usually
a PE number).  Two runs with the same root seed are bit-identical, and
adding a new consumer of randomness does not perturb existing streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "RngStream"]


def derive_seed(root_seed: int, purpose: str, *keys: int) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a purpose label.

    Uses BLAKE2b over the canonical encoding so the mapping is stable across
    Python versions and platforms (``hash()`` is salted, so it is unusable).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(_seed_bytes(root_seed))
    h.update(purpose.encode("utf-8"))
    for k in keys:
        h.update(b"\x00")
        h.update(_seed_bytes(k))
    return int.from_bytes(h.digest(), "little")


def _seed_bytes(value: int) -> bytes:
    """Canonical encoding of an integer seed component.

    Seeds within ±2**127 keep the historical fixed 16-byte encoding (the
    golden-trace fixtures depend on it); wider integers fall back to a
    length-prefixed minimal encoding instead of overflowing.
    """
    value = int(value)
    try:
        return value.to_bytes(16, "little", signed=True)
    except OverflowError:
        width = (value.bit_length() // 8) + 1  # room for the sign bit
        body = value.to_bytes(width, "little", signed=True)
        return b"\xff" + width.to_bytes(8, "little") + body


class RngStream:
    """A named deterministic stream of random numbers.

    Thin wrapper over :class:`numpy.random.Generator` that records its
    derivation so child streams can be split off reproducibly.
    """

    def __init__(self, root_seed: int, purpose: str, *keys: int) -> None:
        self.root_seed = int(root_seed)
        self.purpose = purpose
        self.keys = tuple(int(k) for k in keys)
        self._gen = np.random.Generator(
            np.random.PCG64(derive_seed(root_seed, purpose, *keys))
        )

    def child(self, purpose: str, *keys: int) -> "RngStream":
        """Split off an independent stream keyed by an extra purpose label."""
        return RngStream(
            derive_seed(self.root_seed, self.purpose, *self.keys),
            purpose,
            *keys,
        )

    # -- convenience passthroughs -------------------------------------------------
    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return float(self._gen.random())

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorised draws."""
        return self._gen
