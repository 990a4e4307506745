"""Pinned-particle SMC passes and the Markov kernel obtained by iterating them.

One pass keeps a full reference trajectory alive: the pinned particle's
states are forced and its parent index always points at its own previous
slot.  Tracing the terminal selection backward through the ancestor rows
yields the next state of the chain.  The pinned slot is 0 everywhere by
default; passes with an arbitrary pinned slot sequence (and passes with two
pinned trajectories, see :mod:`pmcmc_lab.c2smc`) are the same
:func:`pmcmc_lab.smc_core.particle_pass` with another pin schedule, and
:func:`reference_pass` runs the slot-0 pass on R replicates at once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, LineageClash
from .rng import as_substream
from .smc_core import BatchedPass, ParticleSystem, gamma_hat, particle_pass, pass_tables


@dataclass(frozen=True)
class Trajectory:
    """A length-T path, optionally with the particle slots it was read from."""

    points: tuple
    lineage: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.lineage is not None:
            object.__setattr__(self, "lineage", tuple(self.lineage))
            if len(self.lineage) != len(self.points):
                raise ValueError("lineage length must match path length")

    def __len__(self) -> int:
        return len(self.points)


def _pin_schedule(pins, T: int, N: int):
    """Merge pinned trajectories into per-time slot/state and slot/parent maps.

    ``pins`` is a list of (lineage, path) pairs; lineages are 0-based slot
    sequences and ``path[t]`` is the state at time t+1, an int or one state
    per replicate.  Raises DimensionMismatch for a lineage or path whose
    length is not T, IndexOutOfRange for a slot outside [0, N), and
    LineageClash when two trajectories claim one slot with different states
    (in any replicate) or parents.
    """
    pin_state = [dict() for _ in range(T)]
    pin_anc = [dict() for _ in range(T - 1)] if T > 1 else []
    for lineage, path in pins:
        if len(lineage) != T or len(path) != T:
            raise DimensionMismatch("pinned lineage and path must have length T")
        for t in range(T):
            slot = int(lineage[t])
            if not 0 <= slot < N:
                raise IndexOutOfRange(f"pinned slot {slot} outside [0, {N})")
            state = path[t]
            if slot in pin_state[t] and np.any(pin_state[t][slot] != state):
                raise LineageClash(
                    f"slot {slot} at time {t + 1} pinned to two different states"
                )
            pin_state[t][slot] = state
            if t >= 1:
                prev = int(lineage[t - 1])
                if slot in pin_anc[t - 1] and pin_anc[t - 1][slot] != prev:
                    raise LineageClash(
                        f"slot {slot} at time {t + 1} pinned to two different parents"
                    )
                pin_anc[t - 1][slot] = prev
    return pin_state, pin_anc


def conditional_system(model, N: int, pins, rng, base: int = 0) -> ParticleSystem:
    """One pass with the given pinned trajectories; free slots evolve normally."""
    schedule = _pin_schedule(pins, model.T, N)
    return particle_pass((model,), N, rng, base=base, pins=schedule).system()


def reference_pass(models, N: int, paths, rng, base: int = 0, which=None) -> BatchedPass:
    """Pinned passes of R replicates, replicate r keeping ``paths[r]`` (R, T)
    in slot 0 throughout; ``models`` and ``which`` as in :func:`particle_pass`."""
    paths = np.asarray(paths, dtype=int)
    tables = pass_tables(models)
    schedule = _pin_schedule([((0,) * tables.T, paths.T)], tables.T, N)
    return particle_pass(tables, N, rng, base=base, rows=len(paths), pins=schedule, which=which)


def run_csmc(model, N: int, x: Trajectory, rng, base: int = 0) -> ParticleSystem:
    """Pass with the reference trajectory pinned to slot 0 throughout.

    With N=1 there are no free particles and the pass replays ``x``.
    """
    if len(x) != model.T:
        raise ValueError(f"trajectory has length {len(x)}, model horizon is {model.T}")
    lineage = (0,) * model.T
    return conditional_system(model, N, [(lineage, tuple(x.points))], rng, base=base)


def select_path(system: ParticleSystem) -> Trajectory:
    """Trace the terminal selection backward through the ancestor rows."""
    T = system.T
    idx = system.final_index
    slots = [0] * T
    points = [None] * T
    for t in range(T, 0, -1):
        slots[t - 1] = idx
        points[t - 1] = system.states[t - 1][idx]
        if t > 1:
            idx = system.ancestors[t - 2][idx]
    return Trajectory(points=tuple(points), lineage=tuple(slots))


def lineage_compatible(system: ParticleSystem, traj: Trajectory) -> bool:
    """Check that a trajectory's slot sequence is an actual ancestral line."""
    if traj.lineage is None:
        return False
    i = traj.lineage
    if i[-1] != system.final_index:
        return False
    for t in range(system.T - 1, 0, -1):
        if system.ancestors[t - 1][i[t]] != i[t - 1]:
            return False
        if system.states[t][i[t]] != traj.points[t]:
            return False
    return system.states[0][i[0]] == traj.points[0]


def artificial_joint_step(model, N: int, x: Trajectory, k, rng, base: int = 0) -> Trajectory:
    """One step of the pass pinned along an arbitrary slot sequence ``k``.

    For multinomial resampling this kernel coincides in law with the slot-0
    kernel; it exists so the coincidence can be tested.
    """
    if len(x) != model.T:
        raise ValueError("trajectory length must equal the horizon")
    k = tuple(int(v) for v in k)
    system = conditional_system(model, N, [(k, tuple(x.points))], rng, base=base)
    return select_path(system)


@dataclass
class ChainTrace:
    """States and per-iteration statistics of one chain run.

    ``states[0]`` is the initial trajectory; row j >= 1 the state after
    iteration j.  ``retained[j]`` counts coordinates kept from the previous
    state, the statistic the escape-probability diagnostics monitor.
    """

    states: np.ndarray          # (n_iter+1, T)
    log_gamma_hats: np.ndarray  # (n_iter,)
    retained: np.ndarray        # (n_iter,)

    @property
    def n_iterations(self) -> int:
        return len(self.log_gamma_hats)

    def trajectory(self, i: int) -> Trajectory:
        return Trajectory(points=tuple(int(s) for s in self.states[i]))

    def apply(self, f) -> np.ndarray:
        return np.array([f(self.trajectory(i)) for i in range(len(self.states))])

    def to_csv(self, path) -> None:
        T = self.states.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "log_gamma_hat", "retained_count"]
                + [f"state_{t}" for t in range(1, T + 1)]
            )
            writer.writerow([0, "", ""] + [int(s) for s in self.states[0]])
            for j in range(self.n_iterations):
                writer.writerow(
                    [j + 1, repr(float(self.log_gamma_hats[j])), int(self.retained[j])]
                    + [int(s) for s in self.states[j + 1]]
                )


def icsmc_chain(model, N: int, x0: Trajectory, n_iter: int, rng) -> ChainTrace:
    """Iterate pass + selection for ``n_iter`` steps starting from ``x0``."""
    rng = as_substream(rng)
    T = model.T
    states = np.empty((n_iter + 1, T), dtype=int)
    states[0] = x0.points
    lgh = np.empty(n_iter)
    retained = np.empty(n_iter, dtype=int)
    current = x0
    for step in range(1, n_iter + 1):
        system = run_csmc(model, N, current, rng, base=step)
        nxt = select_path(system)
        lgh[step - 1] = gamma_hat(system).log_value
        retained[step - 1] = sum(
            1 for a, b in zip(current.points, nxt.points) if a == b
        )
        states[step] = nxt.points
        current = nxt
    return ChainTrace(states=states, log_gamma_hats=lgh, retained=retained)
