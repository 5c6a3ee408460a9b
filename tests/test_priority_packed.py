"""Normalized priority keys vs the historical tuple-of-bits reference.

The reference keys are ``(1, (b0, b1, ...))`` for bitvectors, ``(0, v)``
for numerics and ``(2, 0)`` for None; ``normalize_priority`` emits the
flat ``(1, b0, b1, ...)`` for bitvectors.  These tests pin that both
induce *exactly* the same ordering, on ~10k randomized pairs and on the
adversarial shapes (prefixes, long strings, trailing zeros) where a key
bug would hide.  Randomness comes from :class:`repro.util.rng.RngStream`,
never the wall clock, so a failure reproduces bit-for-bit.
"""

import heapq

import pytest

from repro.core.messages import Envelope, Kind
from repro.queueing.strategies import make_strategy
from repro.util.priority import BitVectorPriority, normalize_priority
from repro.util.rng import RngStream

# ---------------------------------------------------------------- reference


def _reference_key(priority):
    """The historical tuple-of-bits normalized key."""
    if priority is None:
        return (2, 0)
    if isinstance(priority, BitVectorPriority):
        return (1, priority.bits)
    if isinstance(priority, (int, float)):
        return (0, priority)
    if isinstance(priority, (tuple, list)):
        return _reference_key(BitVectorPriority(priority))
    raise TypeError(priority)


def _random_priority(rng):
    """One random priority drawn from the full user-facing domain."""
    kind = rng.randint(0, 10)
    if kind == 0:
        return None
    if kind <= 3:
        return rng.randint(-(10**6), 10**6)
    if kind == 4:
        return rng.uniform(-1000.0, 1000.0)
    # Bitvectors with lengths clustered around the 63-bit chunk boundary
    # (0..2 chunks) so multi-element packed keys get real coverage.
    length = rng.randint(0, 140)
    return BitVectorPriority(rng.randint(0, 2) for _ in range(length))


# ------------------------------------------------------------------ pairwise


def test_packed_key_matches_reference_pairwise():
    """~10k random pairs: packed-key order == historical tuple-key order."""
    rng = RngStream(20260805, "packed-key-equivalence")
    for trial in range(10_000):
        a = _random_priority(rng)
        b = _random_priority(rng)
        ka, kb = normalize_priority(a), normalize_priority(b)
        ra, rb = _reference_key(a), _reference_key(b)
        assert (ka < kb) == (ra < rb), (a, b)
        assert (ka > kb) == (ra > rb), (a, b)
        assert (ka == kb) == (ra == rb), (a, b)


def test_packed_key_sorted_order_matches_reference():
    """Sorting a mixed batch by packed key == sorting by reference key."""
    rng = RngStream(20260805, "packed-key-sort")
    prios = [_random_priority(rng) for _ in range(2_000)]
    indexed = list(enumerate(prios))
    by_packed = sorted(indexed, key=lambda p: (normalize_priority(p[1]), p[0]))
    by_reference = sorted(indexed, key=lambda p: (_reference_key(p[1]), p[0]))
    assert [i for i, _ in by_packed] == [i for i, _ in by_reference]


# ------------------------------------------------------- adversarial shapes


def test_prefix_beats_extension_across_chunk_boundary():
    """A prefix sorts before every extension, even when the extension
    pushes the string past the 63-bit packing chunk."""
    for plen in (1, 31, 62, 63, 64, 126, 127):
        base = BitVectorPriority([1] * plen)
        for extra in ([0], [1], [0] * 70, [1] * 70):
            ext = base.extend(*extra)
            if all(b == 0 for b in extra):
                # Zero-extensions tie on the padded value; the length field
                # must still rank the prefix first.
                assert normalize_priority(base) < normalize_priority(ext)
            assert normalize_priority(base) < normalize_priority(ext)
            assert _reference_key(base) < _reference_key(ext)


def test_chunk_boundary_lengths_round_trip():
    """Keys at exactly 62/63/64/126/127 bits stay mutually ordered like
    the reference, including equal-prefix trailing-zero ties."""
    rng = RngStream(20260805, "chunk-boundaries")
    prios = []
    for length in (0, 1, 62, 63, 64, 65, 125, 126, 127):
        for _ in range(40):
            prios.append(BitVectorPriority(rng.randint(0, 2)
                                           for _ in range(length)))
    for i, a in enumerate(prios):
        for b in prios[i + 1:]:
            assert ((normalize_priority(a) < normalize_priority(b))
                    == (_reference_key(a) < _reference_key(b)))


def test_trusted_children_normalize_like_fresh_instances():
    """Keys of extend()/child() products match freshly validated twins."""
    rng = RngStream(20260805, "trusted-children")
    p = BitVectorPriority()
    bits = []
    for depth in range(90):
        fanout = rng.randint(1, 9)
        index = rng.randint(0, fanout)
        p = p.child(index, fanout)
        width = max(1, (fanout - 1).bit_length())
        bits.extend((index >> (width - 1 - i)) & 1 for i in range(width))
        fresh = BitVectorPriority(bits)
        assert p == fresh
        assert normalize_priority(p) == normalize_priority(fresh)


# ------------------------------------------------ pools vs pre-normalized keys


def _pre_normalized_order(prios, step):
    """The pop order of a pool fed keys normalized before the push (as the
    kernel once did at send time): a heap of ``(key, seq, index)``."""
    heap = [(normalize_priority(p), step * (i + 1), i)
            for i, p in enumerate(prios)]
    heapq.heapify(heap)
    return [heapq.heappop(heap)[2] for _ in range(len(heap))]


def test_envelope_cached_key_round_trips():
    """An envelope, and its forwarded copy, carry the raw priority object;
    the key a pool computes from it at push equals the send-time key the
    kernel once cached on the envelope."""
    rng = RngStream(20260805, "envelope-cache")
    for _ in range(200):
        prio = _random_priority(rng)
        sent_key = normalize_priority(prio)
        env = Envelope(kind=Kind.SEED, src_pe=0, dst_pe=1, entry="e",
                       priority=prio)
        fwd = env.forwarded(2)
        assert env.priority is prio and fwd.priority is prio
        for name in ("prio", "bitprio", "priolifo"):
            pool = make_strategy(name)
            pool.push(fwd, fwd.priority)
            assert pool._heap[0][0] == sent_key, name
            assert pool.pop() is fwd


def test_pool_order_identical_with_and_without_cached_key():
    """Pools normalize at push; every prioritized strategy pops exactly as
    the pre-normalized keys order, and so do envelopes re-pushed after a
    seed forwarding leg (which carries only the raw priority)."""
    rng = RngStream(20260805, "pool-cached-key")
    prios = [_random_priority(rng) for _ in range(600)]
    for name, step in (("prio", 1), ("bitprio", 1), ("priolifo", -1)):
        pool = make_strategy(name)
        for i, prio in enumerate(prios):
            env = Envelope(kind=Kind.SEED, src_pe=0, dst_pe=1, entry=str(i),
                           priority=prio)
            if i % 3 == 0:
                env = env.forwarded(2)
            assert env.priority is prio
            pool.push(env, env.priority)
        got = [int(pool.pop().entry) for _ in range(len(prios))]
        assert got == _pre_normalized_order(prios, step), name


def test_normalize_rejects_garbage():
    with pytest.raises(Exception):
        normalize_priority(object())
