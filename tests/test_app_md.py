"""Cell-decomposition molecular dynamics tests."""

import numpy as np
import pytest

from repro import make_machine
from repro.apps.md import (
    MdParams,
    _cell_of,
    _min_image,
    _pair_force,
    make_particles,
    md_seq,
    run_md,
)
from tests.conftest import pick


# ---------------------------------------------------------------- primitives
def test_params_validation():
    with pytest.raises(ValueError):
        MdParams(cells=2)
    p = MdParams(cells=3)
    assert p.box == pytest.approx(3.0)
    assert p.cutoff == p.cell_size


def test_min_image_wraps():
    assert _min_image(np.array([3.9, 0.0]), 4.0)[0] == pytest.approx(-0.1)
    assert _min_image(np.array([-3.9, 0.0]), 4.0)[0] == pytest.approx(0.1)
    assert _min_image(np.array([1.0, 0.0]), 4.0)[0] == pytest.approx(1.0)


def test_pair_force_properties():
    p = MdParams()
    # Repulsive along delta, zero at/beyond cutoff.
    f = _pair_force(np.array([0.5, 0.0]), p)
    assert f[0] > 0 and f[1] == 0
    assert np.all(_pair_force(np.array([1.0, 0.0]), p) == 0)
    assert np.all(_pair_force(np.array([2.0, 0.0]), p) == 0)
    # Newton's third law.
    d = np.array([0.3, -0.2])
    assert np.allclose(_pair_force(d, p), -_pair_force(-d, p))


def test_make_particles_deterministic_and_in_box():
    p = MdParams(seed=5)
    pos1, vel1 = make_particles(p)
    pos2, vel2 = make_particles(p)
    assert np.array_equal(pos1, pos2) and np.array_equal(vel1, vel2)
    assert np.all((0 <= pos1) & (pos1 < p.box))
    assert np.all(np.abs(vel1) * p.dt <= p.cell_size / 4 + 1e-12)


def test_cell_of_wraps():
    p = MdParams(cells=4)
    assert _cell_of(0.5, 3.5, p) == (0, 3)
    assert _cell_of(3.99, 0.0, p) == (3, 0)


# ------------------------------------------------------------------ dynamics
def test_seq_momentum_conserved():
    """Pairwise equal-and-opposite forces keep total momentum constant."""
    p = MdParams(cells=4, n_particles=32, steps=12, seed=2)
    _, vel0 = make_particles(p)
    _, vel = md_seq(p)
    assert np.allclose(vel.sum(axis=0), vel0.sum(axis=0), atol=1e-9)


def test_seq_stays_in_box():
    p = MdParams(cells=4, n_particles=32, steps=12, seed=2)
    pos, _ = md_seq(p)
    assert np.all((0 <= pos) & (pos < p.box))


@pytest.mark.parametrize("machine_name,pes", [
    ("ideal", 1), ("symmetry", 4), ("ipsc2", 16),
])
def test_parallel_bitwise_equal_to_reference(machine_name, pes):
    params = MdParams(cells=4, n_particles=48, steps=8, seed=3)
    ref_pos, ref_vel = md_seq(params)
    (pos, vel), _ = run_md(make_machine(machine_name, pes), params)
    assert np.array_equal(pos, ref_pos)
    assert np.array_equal(vel, ref_vel)


def test_migrations_actually_happen():
    params = MdParams(cells=4, n_particles=64, steps=12, seed=1)
    (pos, vel), result = run_md(make_machine("ideal", 4), params)
    kernel = result.kernel
    migrated = sum(
        kernel.sharing.accumulator_partial("migrations", pe)
        for pe in range(kernel.num_pes)
    )
    assert migrated > 0, "test instance exercises no migration paths"
    assert np.array_equal(pos, md_seq(params)[0])


@pytest.mark.parametrize("cells", [3, 4, 5])
def test_cell_count_invariant(cells):
    params = MdParams(cells=cells, n_particles=30, steps=6, seed=4)
    ref_pos, _ = md_seq(params)
    (pos, _), _ = run_md(make_machine("ipsc2", 4), params)
    assert np.array_equal(pos, ref_pos)


def test_zero_steps_returns_initial_state():
    params = MdParams(cells=3, n_particles=16, steps=0, seed=7)
    pos0, vel0 = make_particles(params)
    (pos, vel), _ = run_md(make_machine("ideal", 2), params)
    assert np.array_equal(pos, pos0)
    assert np.array_equal(vel, vel0)


# ------------------------------------------- vectorised cell step (PR 16)
def _assert_bitwise_equal_to_reference(params):
    ref_pos, ref_vel = md_seq(params)
    for machine_name, pes in (("ideal", 1), ("ipsc2", 16)):
        # Division by a zero distance must never be attempted, not merely
        # masked afterwards: numpy raises here instead of warning.
        with np.errstate(all="raise"):
            (pos, vel), _ = run_md(make_machine(machine_name, pes), params)
        assert np.array_equal(pos, ref_pos), (params, machine_name)
        assert np.array_equal(vel, ref_vel), (params, machine_name)


def test_vectorised_step_bitwise_equal_on_drawn_params():
    """The cell step works on whole arrays; ``md_seq`` with the scalar
    ``_min_image`` / ``_pair_force`` stays the oracle, compared with ``==``
    on every float (never ``allclose``)."""
    from repro.util.rng import RngStream

    rng = RngStream(16, "md-vectorised")
    for _ in range(24):
        params = MdParams(
            cells=rng.randint(3, 6),
            cell_size=pick(rng, (0.5, 1.0, 1.25)),
            n_particles=rng.randint(1, 41),
            dt=pick(rng, (0.01, 0.02, 0.03)),
            steps=rng.randint(1, 5),
            k=pick(rng, (5.0, 20.0, 60.0)),
            seed=rng.randint(0, 10 ** 6),
        )
        _assert_bitwise_equal_to_reference(params)


def test_vectorised_step_edge_cells(monkeypatch):
    """Hand-built populations: coincident particles (r == 0 between
    different ids), a pair exactly at the cutoff, a crowded cell, a
    single-particle cell and eleven empty cells."""
    pos = np.array([
        [0.25, 2.0], [0.25, 2.0],       # coincident, same cell
        [1.5, 2.5], [2.5, 2.5],         # exactly cutoff apart, adjacent cells
        [3.1, 0.2], [3.4, 0.3], [3.2, 0.6], [3.7, 0.7],   # crowded, moving
        [2.5, 0.5],                     # alone in its cell
    ])
    vel = np.zeros_like(pos)
    vel[4:8] = [[0.9, -0.4], [-0.7, 0.2], [0.3, 0.8], [-0.2, -0.9]]
    monkeypatch.setattr("repro.apps.md.make_particles",
                        lambda params: (pos.copy(), vel.copy()))
    params = MdParams(cells=4, cell_size=1.0, n_particles=len(pos), steps=6)
    delta = _min_image(pos[2] - pos[3], params.box)
    assert float(np.hypot(delta[0], delta[1])) == params.cutoff
    _assert_bitwise_equal_to_reference(params)
    # The still particles really were still (no force at r == 0 or at the
    # cutoff), the crowded ones really did interact.
    ref_pos, ref_vel = md_seq(params)
    assert np.array_equal(ref_pos[:4], pos[:4]) and not ref_vel[:4].any()
    assert not np.array_equal(ref_vel[4:8], vel[4:8])
