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


#: Uniforms :meth:`RngStream.random` draws from its generator at a time.
BLOCK = 256


class RngStream:
    """A named deterministic stream of random numbers.

    Thin wrapper over :class:`numpy.random.Generator` that records its
    derivation so child streams can be split off reproducibly.

    :meth:`random` serves uniforms from a block of :data:`BLOCK` drawn
    ahead: PCG64 yields the same doubles one at a time or in a block, and
    one numpy call per draw costs ten times a list read.  Mixing draws
    keeps exact values: :meth:`randint` first gives back the uniforms
    drawn ahead, and once :attr:`generator` has been handed out (its
    holder may draw from it at any time) :meth:`random` draws one at a
    time.  Every draw is the value a stream drawing one at a time would
    have produced.
    """

    def __init__(self, root_seed: int, purpose: str, *keys: int) -> None:
        self.root_seed = int(root_seed)
        self.purpose = purpose
        self.keys = tuple(int(k) for k in keys)
        self._gen = np.random.Generator(
            np.random.PCG64(derive_seed(root_seed, purpose, *keys))
        )
        self._block: list = []
        self._next = 0          # index of the next uniform to serve
        self._shared = False    # the generator has been handed out

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
        if self._block:
            self._settle()
        return int(self._gen.integers(low, high))

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        i = self._next
        try:
            u = self._block[i]
        except IndexError:      # the block is spent (or none was drawn)
            if self._shared:
                return float(self._gen.random())
            self._block = self._gen.random(BLOCK).tolist()
            u = self._block[0]
            i = 0
        self._next = i + 1
        return u

    def _settle(self) -> None:
        """Give back the uniforms drawn ahead of :meth:`random`'s callers,
        so the generator stands where one-at-a-time draws would leave it."""
        unused = len(self._block) - self._next
        if unused:
            bits = self._gen.bit_generator
            state = bits.state
            bits.advance(-unused)
            # advance() also drops the buffered half of a 32-bit draw,
            # which uniforms never touch: put it back.
            rewound = bits.state
            rewound["has_uint32"] = state["has_uint32"]
            rewound["uinteger"] = state["uinteger"]
            bits.state = rewound
        self._block = []
        self._next = 0

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorised draws."""
        if self._block:
            self._settle()
        self._shared = True
        return self._gen
