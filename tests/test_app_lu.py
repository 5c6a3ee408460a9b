"""Pipelined LU factorization tests."""

import numpy as np
import pytest

from repro import make_machine
from repro.apps.lu import lu_seq, make_matrix, run_lu


def split_lu(lu):
    """Separate a combined LU into (unit-lower L, upper U)."""
    return np.tril(lu, -1) + np.eye(lu.shape[0]), np.triu(lu)


def test_reference_factorization_reconstructs_a():
    a = make_matrix(24, seed=2)
    lower, upper = split_lu(lu_seq(a))
    assert np.allclose(lower @ upper, a)
    assert np.allclose(np.diag(lower), 1.0)
    assert np.allclose(np.tril(upper, -1), 0.0)


def test_matrix_is_diagonally_dominant():
    a = make_matrix(16, seed=1)
    for i in range(16):
        assert abs(a[i, i]) > np.sum(np.abs(a[i])) - abs(a[i, i])


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("symmetry", 4), ("ipsc2", 16), ("hetero", 4),
])
def test_parallel_bitwise_equal(machine_name, pes):
    ref = lu_seq(make_matrix(32, seed=1))
    (_, lu), _ = run_lu(make_machine(machine_name, pes), n=32, blocks=8,
                        data_seed=1)
    assert np.array_equal(lu, ref)


@pytest.mark.parametrize("blocks", [1, 2, 4, 16, 32])
def test_block_count_invariant(blocks):
    ref = lu_seq(make_matrix(32, seed=3))
    (_, lu), _ = run_lu(make_machine("ipsc2", 4), n=32, blocks=blocks,
                        data_seed=3)
    assert np.array_equal(lu, ref)


def test_indivisible_rows_rejected():
    with pytest.raises(Exception):
        run_lu(make_machine("ideal", 2), n=10, blocks=3)


def test_pipelining_beats_tiny_block_counts():
    """More blocks per PE -> deeper pipeline -> better overlap (up to a
    point): 16 blocks must beat 2 blocks on 8 PEs."""
    _, shallow = run_lu(make_machine("ipsc2", 8), n=64, blocks=2)
    _, deep = run_lu(make_machine("ipsc2", 8), n=64, blocks=16)
    assert deep.time < shallow.time


def test_speedup_exists():
    t1 = run_lu(make_machine("ipsc2", 1), n=64, blocks=16)[1].time
    t8 = run_lu(make_machine("ipsc2", 8), n=64, blocks=16)[1].time
    assert t1 / t8 > 2.5


def test_tiny_matrix():
    ref = lu_seq(make_matrix(2, seed=0))
    (_, lu), _ = run_lu(make_machine("ideal", 2), n=2, blocks=2, data_seed=0)
    assert np.array_equal(lu, ref)
