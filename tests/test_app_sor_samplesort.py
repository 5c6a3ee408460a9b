"""SOR and sample-sort application tests."""

import numpy as np
import pytest

from repro import make_machine
from repro.apps.samplesort import run_samplesort
from repro.apps.sor import sor_seq, run_sor


# ------------------------------------------------------------------------ sor
def test_sor_seq_converges_faster_than_jacobi():
    from repro.apps.jacobi import jacobi_seq

    _, iters, resid = sor_seq(16, tol=1e-2, omega=1.5, max_iters=500)
    grid_j, resid_j = jacobi_seq(16, iters)
    assert resid < resid_j  # over-relaxation accelerates convergence


def test_sor_seq_respects_max_iters():
    _, iters, resid = sor_seq(32, tol=1e-12, max_iters=7)
    assert iters == 7
    assert resid > 1e-12


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("symmetry", 4), ("ipsc2", 16),
])
def test_sor_parallel_matches_reference_exactly(machine_name, pes):
    ref_grid, ref_iters, ref_resid = sor_seq(16, tol=1e-2, max_iters=100)
    (grid, iters, resid), _ = run_sor(
        make_machine(machine_name, pes), n=16, blocks=4, tol=1e-2, max_iters=100
    )
    assert iters == ref_iters
    assert resid == pytest.approx(ref_resid)
    assert np.array_equal(grid, ref_grid)


@pytest.mark.parametrize("blocks", [1, 2, 8])
def test_sor_block_decomposition_invariant(blocks):
    ref_grid, ref_iters, _ = sor_seq(16, tol=1e-2, max_iters=60)
    (grid, iters, _), _ = run_sor(
        make_machine("ipsc2", 4), n=16, blocks=blocks, tol=1e-2, max_iters=60
    )
    assert iters == ref_iters
    assert np.array_equal(grid, ref_grid)


@pytest.mark.parametrize("omega", [1.0, 1.3, 1.8])
def test_sor_omega_invariant(omega):
    ref = sor_seq(16, tol=1e-2, omega=omega, max_iters=200)
    (grid, iters, _), _ = run_sor(
        make_machine("ideal", 4), n=16, blocks=2, tol=1e-2, omega=omega,
        max_iters=200,
    )
    assert iters == ref[1]
    assert np.array_equal(grid, ref[0])


def test_sor_max_iters_cap_parallel():
    (_, iters, resid), _ = run_sor(
        make_machine("ideal", 4), n=16, blocks=2, tol=1e-12, max_iters=5
    )
    assert iters == 5
    assert resid > 1e-12


def test_sor_indivisible_rejected():
    with pytest.raises(Exception):
        run_sor(make_machine("ideal", 2), n=10, blocks=3)


# ----------------------------------------------------------------- samplesort
@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("symmetry", 4), ("ipsc2", 16), ("cluster", 8),
])
def test_samplesort_matches_numpy(machine_name, pes):
    (inp, out), _ = run_samplesort(
        make_machine(machine_name, pes), n=1024, workers=8
    )
    assert np.array_equal(out, np.sort(inp))


@pytest.mark.parametrize("workers", [1, 2, 5, 16])
def test_samplesort_worker_count_invariant(workers):
    (inp, out), _ = run_samplesort(
        make_machine("ipsc2", 4), n=512, workers=workers
    )
    assert np.array_equal(out, np.sort(inp))


@pytest.mark.parametrize("oversample", [1, 4, 64])
def test_samplesort_oversampling_invariant(oversample):
    (inp, out), _ = run_samplesort(
        make_machine("ideal", 4), n=512, workers=8, oversample=oversample
    )
    assert np.array_equal(out, np.sort(inp))


def test_samplesort_tiny_inputs():
    (inp, out), _ = run_samplesort(make_machine("ideal", 2), n=3, workers=8)
    assert np.array_equal(out, np.sort(inp))
    (inp, out), _ = run_samplesort(make_machine("ideal", 2), n=1, workers=1)
    assert np.array_equal(out, np.sort(inp))


def test_samplesort_oversampling_balances_buckets():
    """More samples -> better splitters -> flatter final bucket sizes."""

    def spread(oversample):
        (_, out), result = run_samplesort(
            make_machine("ideal", 8), n=4096, workers=8, oversample=oversample
        )
        kernel = result.kernel
        sizes = [
            sum(len(piece) for piece in c.received)
            for c in kernel.objects.chares.values()
            if type(c).__name__ == "SortWorker"
        ]
        return max(sizes) - min(sizes)

    assert spread(64) <= spread(1)


def test_samplesort_alltoall_dominates_bytes():
    _, result = run_samplesort(make_machine("ipsc2", 8), n=4096, workers=8)
    # 8 workers' slices ship twice (seed + buckets) plus samples/results:
    # the byte volume must be within sane bounds of 4x the raw data.
    raw = 4096 * 8
    assert raw < result.stats.total_bytes_sent < 6 * raw
