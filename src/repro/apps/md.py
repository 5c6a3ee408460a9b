"""Molecular dynamics by cell decomposition (the NAMD-shaped workload).

The Charm lineage's flagship application class: short-range particle
dynamics where space is decomposed into **cells**, one chare per cell,
and each timestep needs (a) neighbor-cell particle exchange for force
computation and (b) **particle migration** between cells — so unlike the
stencil apps, the communication *payloads and destinations are data
dependent* and change every step.

Model (kept deliberately small but real):

* 2-D periodic box of side ``C * cell``; one chare per cell, pinned
  round-robin; ``n`` particles with unit mass.
* Soft repulsive pair force ``f(r) = k (1 - r/rc)`` for ``r < rc``
  (bounded, smooth — no LJ singularities to destabilize tests), with
  minimum-image convention; ``rc`` equals the cell size so the 8-neighbor
  stencil covers all interactions.
* Symplectic Euler: ``v += F dt; x += v dt`` then periodic wrap.
* Per step, each cell: sends its population to its 8 neighbors; computes
  forces for its own particles once all neighbor populations for that
  step arrived (summing pair contributions in ascending particle-id
  order, which makes the floating-point result **bit-identical** to the
  sequential reference); integrates; then hands off any particle that
  crossed into a neighbor cell (one handoff message per neighbor per
  step, possibly empty, so population is known deterministically).

Validation: :func:`md_seq` computes the same trajectories with an O(n²)
minimum-image loop over the scalar helpers :func:`_min_image` and
:func:`_pair_force`; it is the reference the vectorised cell step
(:meth:`MdCell._compute_step`) is tested against, and tests require exact
equality of every position and velocity.  The cell step applies the same
elementwise operations in the same order to whole ``(own, candidates)``
arrays, which IEEE arithmetic makes bit-equal per element; the one thing
vectorising could change is the *sum* over candidates — ``np.sum`` adds
pairwise, and floating-point addition is not associative — so the row sum
stays a sequential ``np.add.accumulate`` in ascending particle id, the
order ``md_seq`` adds in.  Work model: ``PAIR_WORK`` per pair examined plus
``PART_WORK`` per particle per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.chare import Chare, entry
from repro.core.kernel import Kernel, RunResult
from repro.machine.network import Machine
from repro.util.rng import RngStream

__all__ = ["MdParams", "make_particles", "md_seq", "MdMain", "run_md",
           "PAIR_WORK", "PART_WORK"]

PAIR_WORK = 3.0
PART_WORK = 5.0


@dataclass(frozen=True)
class MdParams:
    """Simulation parameters; box side is ``cells * cell_size``."""

    cells: int = 4           # C x C cell grid
    cell_size: float = 1.0
    n_particles: int = 64
    dt: float = 0.02
    steps: int = 10
    k: float = 20.0          # force stiffness
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cells < 3:
            # With < 3 cells per axis the periodic 8-neighborhood aliases
            # (one cell appears twice), double-counting pair forces.
            raise ValueError("MdParams.cells must be >= 3")

    @property
    def box(self) -> float:
        return self.cells * self.cell_size

    @property
    def cutoff(self) -> float:
        return self.cell_size

    def __wire_size__(self) -> int:
        return 48


def make_particles(params: MdParams) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic initial state: ``(positions[n,2], velocities[n,2])``."""
    rng = RngStream(params.seed, "md", params.n_particles).generator
    pos = rng.uniform(0.0, params.box, size=(params.n_particles, 2))
    vel = rng.normal(0.0, 0.5, size=(params.n_particles, 2))
    # Keep |v| dt well below one cell so migration is at most one cell/step.
    vmax = params.cell_size / (4 * params.dt)
    np.clip(vel, -vmax, vmax, out=vel)
    return pos, vel


def _min_image(delta: np.ndarray, box: float) -> np.ndarray:
    return delta - box * np.round(delta / box)


def _pair_force(delta: np.ndarray, params: MdParams) -> np.ndarray:
    """Soft repulsion along ``delta`` (force on the particle at +delta)."""
    r = float(np.hypot(delta[0], delta[1]))
    if r >= params.cutoff or r == 0.0:
        return np.zeros(2)
    mag = params.k * (1.0 - r / params.cutoff)
    return (delta / r) * mag


def md_seq(params: MdParams) -> Tuple[np.ndarray, np.ndarray]:
    """Reference trajectory: O(n²) minimum-image with the same float order."""
    pos, vel = make_particles(params)
    pos, vel = pos.copy(), vel.copy()
    n = params.n_particles
    for _ in range(params.steps):
        forces = np.zeros_like(pos)
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                delta = _min_image(pos[i] - pos[j], params.box)
                forces[i] += _pair_force(delta, params)
        vel = vel + forces * params.dt
        pos = (pos + vel * params.dt) % params.box
    return pos, vel


def _cell_of(x: float, y: float, params: MdParams) -> Tuple[int, int]:
    c = params.cells
    return (int(x // params.cell_size) % c, int(y // params.cell_size) % c)


class MdCell(Chare):
    """One spatial cell: owns its particles; exchanges, computes, migrates."""

    def __init__(self, ci, cj, ids, pos, vel, main):
        self.ci, self.cj = ci, cj
        self.main = main
        # Particle store: id -> (pos, vel); kept sorted at use time.
        self.park: Dict[int, Tuple[np.ndarray, np.ndarray]] = {
            int(i): (p.copy(), v.copy()) for i, p, v in zip(ids, pos, vel)
        }
        self.step = 0
        self.neighbors: List = []       # 8 handles
        self._pops: Dict[int, list] = {}      # step -> received populations
        self._inbound: Dict[int, list] = {}  # step -> received migrations
        self._wired = False

    @entry
    def wire(self, neighbors):
        self.neighbors = list(neighbors)
        self._wired = True
        self._send_population()
        self._try_compute()

    def _snapshot(self):
        """(id, pos, vel) triples for messaging (ids ascending)."""
        return tuple(
            (i, self.park[i][0].copy(), self.park[i][1].copy())
            for i in sorted(self.park)
        )

    def _send_population(self):
        snap = self._snapshot()
        self.charge(PART_WORK * len(snap))
        for h in self.neighbors:
            self.send(h, "population", self.step, snap)

    @entry
    def population(self, step, snap):
        self._pops.setdefault(step, []).append(snap)
        self._try_compute()

    @entry
    def handoff(self, step, snap):
        self._inbound.setdefault(step, []).append(snap)
        self._try_compute()

    def _try_compute(self):
        if not self._wired:
            return
        params: MdParams = self.readonly("md_params")
        progressed = True
        while progressed:
            progressed = False
            if (
                self.step < params.steps
                and not self._awaiting_inbound()
                and len(self._pops.get(self.step, [])) == len(self.neighbors)
            ):
                self._compute_step()
                progressed = True
            # After integrating step k we must collect 8 handoffs before
            # the step-(k+1) population is final.
            elif self._awaiting_inbound():
                arrivals = self._inbound.get(self.step - 1, [])
                if len(arrivals) == len(self.neighbors):
                    for snap in arrivals:
                        for i, p, v in snap:
                            self.park[int(i)] = (np.asarray(p), np.asarray(v))
                    del self._inbound[self.step - 1]
                    self._inbound_pending = False
                    if self.step < params.steps:
                        self._send_population()
                    progressed = True

    def _awaiting_inbound(self) -> bool:
        return getattr(self, "_inbound_pending", False)

    def _compute_step(self):
        params: MdParams = self.readonly("md_params")
        neighbors_parts = []
        for snap in self._pops.pop(self.step):
            neighbors_parts.extend(snap)
        own = self._snapshot()
        candidates = sorted(
            list(own) + neighbors_parts, key=lambda t: t[0]
        )
        # Every candidate but the particle itself is a pair examined.
        pairs = len(own) * (len(candidates) - 1)
        new_state: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        if own:
            box, cutoff = params.box, params.cutoff
            own_pos = np.array([p for _i, p, _v in own])
            own_vel = np.array([v for _i, _p, v in own])
            cand_pos = np.array([p for _j, p, _v in candidates])
            # (own, candidate, xy): _min_image and _pair_force, elementwise.
            delta = own_pos[:, None, :] - cand_pos[None, :, :]
            delta = delta - box * np.round(delta / box)
            r = np.hypot(delta[..., 0], delta[..., 1])
            # No force beyond the cutoff, between coincident particles, or
            # of a particle on itself (its own row entry has r == 0).
            dead = (r >= cutoff) | (r == 0.0)
            r[dead] = 1.0
            mag = params.k * (1.0 - r / cutoff)
            # Column 0 stays zero: the sum's starting value.
            terms = np.zeros((len(own), len(candidates) + 1, 2))
            terms[:, 1:] = (delta / r[..., None]) * mag[..., None]
            terms[:, 1:][dead] = 0.0
            # Sequential in ascending id, never the pairwise np.sum.
            force = np.add.accumulate(terms, axis=1)[:, -1]
            vel_new = own_vel + force * params.dt
            pos_new = (own_pos + vel_new * params.dt) % box
            for a, (i, _p, _v) in enumerate(own):
                new_state[int(i)] = (pos_new[a], vel_new[a])
        self.charge(PAIR_WORK * pairs + PART_WORK * len(own))
        # Partition into stay / migrate-per-neighbor-cell.
        stay: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        outbound: Dict[int, list] = {k: [] for k in range(len(self.neighbors))}
        params_cells = params.cells
        for i, (p, v) in new_state.items():
            cell = _cell_of(p[0], p[1], params)
            if cell == (self.ci, self.cj):
                stay[i] = (p, v)
            else:
                idx = self._neighbor_index(cell, params_cells)
                outbound[idx].append((i, p, v))
        self.park = stay
        migrated = sum(len(v) for v in outbound.values())
        if migrated:
            self.accumulate("migrations", migrated)
        for idx, h in enumerate(self.neighbors):
            self.send(h, "handoff", self.step, tuple(outbound[idx]))
        self.step += 1
        self._inbound_pending = True

    @entry
    def report(self, main):
        """Send the final (post-migration) cell population to the main chare."""
        self.send(main, "cell_state", self._snapshot())

    def _neighbor_index(self, cell: Tuple[int, int], c: int) -> int:
        """Index of ``cell`` within our 8-neighborhood ordering."""
        di = (cell[0] - self.ci + c) % c
        dj = (cell[1] - self.cj + c) % c
        di = di - c if di > c // 2 else di
        dj = dj - c if dj > c // 2 else dj
        order = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        try:
            return order.index((di, dj))
        except ValueError:
            raise RuntimeError(
                f"particle moved more than one cell: delta {(di, dj)}"
            ) from None


class MdMain(Chare):
    def __init__(self, params):
        self.set_readonly("md_params", params)
        self.new_accumulator("migrations", 0, "sum")
        self.params = params
        pos, vel = make_particles(params)
        c = params.cells
        buckets: Dict[Tuple[int, int], list] = {
            (i, j): [] for i in range(c) for j in range(c)
        }
        for idx in range(params.n_particles):
            buckets[_cell_of(pos[idx, 0], pos[idx, 1], params)].append(idx)
        self.handles = {}
        pe = 0
        for (ci, cj), ids in buckets.items():
            self.handles[(ci, cj)] = self.create(
                MdCell, ci, cj, tuple(ids), pos[ids], vel[ids],
                self.thishandle, pe=pe % self.num_pes,
            )
            pe += 1
        order = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        for (ci, cj), h in self.handles.items():
            nbrs = tuple(
                self.handles[((ci + di) % c, (cj + dj) % c)] for di, dj in order
            )
            self.send(h, "wire", nbrs)
        self.start_quiescence(self.thishandle, "quiet")

    @entry
    def quiet(self):
        # All steps done and all handoffs delivered: collect final state.
        for h in self.handles.values():
            self.send(h, "report", self.thishandle)
        self.pending = len(self.handles)
        self.pos = np.zeros((self.params.n_particles, 2))
        self.vel = np.zeros((self.params.n_particles, 2))

    @entry
    def cell_state(self, snap):
        for i, p, v in snap:
            self.pos[int(i)] = p
            self.vel[int(i)] = v
        self.pending -= 1
        if self.pending == 0:
            self.exit((self.pos, self.vel))


def run_md(
    machine: Machine,
    params: MdParams | None = None,
    *,
    queueing: str = "fifo",
    balancer: str = "random",
    seed: int = 0,
    **kernel_kwargs,
) -> Tuple[Tuple[np.ndarray, np.ndarray], RunResult]:
    """Run cell-decomposition MD; returns ``((pos, vel), RunResult)``."""
    if params is None:
        params = MdParams()
    kernel = Kernel(machine, queueing=queueing, balancer=balancer, seed=seed,
                    **kernel_kwargs)
    result = kernel.run(MdMain, params)
    return result.result, result
