"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.rng import BLOCK, RngStream, derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(42, "x", 1, 2) == derive_seed(42, "x", 1, 2)


def test_derive_seed_sensitive_to_all_inputs():
    base = derive_seed(42, "x", 1)
    assert derive_seed(43, "x", 1) != base
    assert derive_seed(42, "y", 1) != base
    assert derive_seed(42, "x", 2) != base
    assert derive_seed(42, "x") != base


def test_streams_reproducible():
    a = RngStream(7, "test")
    b = RngStream(7, "test")
    assert [a.randint(0, 1000) for _ in range(20)] == [
        b.randint(0, 1000) for _ in range(20)
    ]


def test_streams_with_different_purpose_differ():
    a = RngStream(7, "alpha")
    b = RngStream(7, "beta")
    assert [a.randint(0, 10**9) for _ in range(8)] != [
        b.randint(0, 10**9) for _ in range(8)
    ]


def test_child_streams_independent_of_consumption():
    parent1 = RngStream(1, "p")
    parent2 = RngStream(1, "p")
    parent2.randint(0, 100)  # consume some draws
    c1 = parent1.child("c")
    c2 = parent2.child("c")
    assert [c1.randint(0, 10**9) for _ in range(5)] == [
        c2.randint(0, 10**9) for _ in range(5)
    ]


def test_randint_range():
    rng = RngStream(3, "r")
    vals = [rng.randint(5, 8) for _ in range(100)]
    assert set(vals) <= {5, 6, 7}
    assert len(set(vals)) > 1


def test_random_unit_interval():
    rng = RngStream(3, "u")
    vals = [rng.random() for _ in range(100)]
    assert all(0.0 <= v < 1.0 for v in vals)


@given(st.integers(), st.text(max_size=20))
def test_property_derive_seed_is_64bit(seed, purpose):
    value = derive_seed(seed, purpose)
    assert 0 <= value < 2**64


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=100))
def test_property_same_keys_same_stream(seed, key):
    a = RngStream(seed, "p", key)
    b = RngStream(seed, "p", key)
    assert a.randint(0, 10**9) == b.randint(0, 10**9)


def _one_at_a_time(seed, purpose):
    """The reference: a bare generator on the stream's seed, drawn one
    value per call."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, purpose)))


def test_block_uniforms_equal_scalar_draws_across_block_boundaries():
    stream = RngStream(11, "uniforms")
    ref = _one_at_a_time(11, "uniforms")
    n = 10_000
    assert n > 2 * BLOCK and n % BLOCK
    assert [stream.random() for _ in range(n)] == [
        float(ref.random()) for _ in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_mixed_draws_keep_exact_values(seed):
    """One rule for a stream that mixes random() with randint() and the
    generator: every value is the one-at-a-time value, wherever in a block
    the switch falls (randint's small ranges also use numpy's buffered
    32-bit half-draws)."""
    stream = RngStream(seed, "mixed")
    ref = _one_at_a_time(seed, "mixed")
    plan = np.random.Generator(np.random.PCG64(seed)).integers(0, 4, 3000)
    got, want = [], []
    for step in plan:
        if step < 2:
            got.append(stream.random())
            want.append(float(ref.random()))
        elif step == 2:
            got.append(stream.randint(0, 7))
            want.append(int(ref.integers(0, 7)))
        elif len(got) > 2000:
            # After the generator is out, it and random() share one stream.
            got.append(float(stream.generator.random()))
            want.append(float(ref.random()))
        else:
            got.append(stream.randint(0, 2 ** 40))
            want.append(int(ref.integers(0, 2 ** 40)))
    assert got == want
