"""Pinned-particle SMC passes and the Markov kernel obtained by iterating them.

One pass keeps a full reference trajectory alive: the pinned particle's
states are forced and its parent index always points at its own previous
slot.  Every pass here is a :class:`pmcmc_lab.smc_core.BatchedPass`; the
next state of the chain is replicate 0's selected ancestral line
(:meth:`~pmcmc_lab.smc_core.BatchedPass.lineages`), read by
:func:`select_path`.  :func:`conditional_system` is the one one-replicate
pinned pass: any pinned (lineage, path) pairs, so the slot-0 pass, a pass
pinned along an arbitrary slot sequence and the two-pin pass of
:mod:`pmcmc_lab.c2smc` differ only in their pins.  :func:`reference_pass`
runs the slot-0 pass on R replicates at once.

:func:`run_chain` is the one step loop of every sampler (:func:`icsmc_sampler`
here; PIMH, PMMH and particle Gibbs in :mod:`pmcmc_lab.pgibbs`), and
:func:`icsmc_chain` is its one-row run kept as a trace.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, TraceTooShort
from .rng import as_substream
from .smc_core import BatchedPass, PassTables, _path_rows, _pin_schedule, particle_pass


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
                raise DimensionMismatch("lineage length must match path length")

    def __len__(self) -> int:
        return len(self.points)


def conditional_system(model, N: int, pins, rng, base: int = 0) -> BatchedPass:
    """One pass (one replicate) with the given pinned (lineage, path) pairs,
    checked by :func:`pmcmc_lab.smc_core._pin_schedule`; free slots evolve
    normally, and with every slot pinned the pass replays its pins."""
    return particle_pass(model.tables, N, rng, base=base, pins=pins)


def reference_pass(tables: PassTables, N: int, paths, rng, base: int = 0, which=None) -> BatchedPass:
    """Pinned passes of R replicates, replicate r keeping ``paths[r]`` (R, T)
    in slot 0 throughout; ``tables`` and ``which`` as in :func:`particle_pass`."""
    paths = _path_rows(paths, tables.T)
    pins = [((0,) * tables.T, paths.T)]
    return particle_pass(tables, N, rng, base=base, rows=len(paths), pins=pins, which=which)


def select_path(p: BatchedPass) -> Trajectory:
    """Replicate 0's selected path, with the slots it was read from."""
    slots = p.lineages()[0]
    points = p.states[np.arange(len(slots)), 0, slots]
    return Trajectory(points=tuple(points.tolist()), lineage=tuple(slots.tolist()))


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


class ChainState(NamedTuple):
    """R chains after one step; a field the sampler does not carry is None.
    The start state of an accept/reject sampler carries an all-False mask."""

    paths: np.ndarray | None = None       # (R, T)
    thetas: np.ndarray | None = None      # (R,) parameter indices
    log_gammas: np.ndarray | None = None  # (R,) log estimates
    accepted: np.ndarray | None = None    # (R,) acceptance mask of the step


class Sampler(NamedTuple):
    """A start state, drawn at base 0 if at all, and an R-row step
    ``step(state, rng, base) -> ChainState``: a module-level step with its
    model arguments bound by :func:`functools.partial`."""

    start: ChainState
    step: Callable


def run_chain(sampler: Sampler, n_steps: int, rng):
    """The one step loop of every sampler: an iterator over the state after
    each of ``n_steps`` steps, step b drawing at base b, that keeps none of
    them.  Raises TraceTooShort for a negative ``n_steps`` when called."""
    if n_steps < 0:
        raise TraceTooShort(f"a chain runs n_steps >= 0 steps, got {n_steps}")
    rng = as_substream(rng)

    def steps():
        state = sampler.start
        for base in range(1, n_steps + 1):
            state = sampler.step(state, rng, base)
            yield state

    return steps()


def icsmc_step(model, N: int, state: ChainState, rng, base: int = 0) -> ChainState:
    """One i-cSMC step on R rows: one slot-0 :func:`reference_pass` per row,
    keeping each row's selected path and log estimate."""
    p = reference_pass(model.tables, N, state.paths, rng, base=base)
    return ChainState(paths=p.paths(), log_gammas=p.log_gamma())


def icsmc_sampler(model, N: int, x0, R: int) -> Sampler:
    """R i-cSMC chains at the path ``x0``, checked as a pin; a step is
    :func:`icsmc_step`."""
    _pin_schedule(model.tables, [((0,) * model.T, tuple(x0))], N)
    start = ChainState(paths=np.tile(np.asarray(tuple(x0), dtype=int), (R, 1)))
    return Sampler(start, partial(icsmc_step, model, N))


def icsmc_chain(model, N: int, x0: Trajectory, n_iter: int, rng) -> ChainTrace:
    """Iterate pass + selection for ``n_iter`` steps starting from ``x0``:
    :func:`run_chain`, the one step loop, on one row, with every state kept
    as the trace.  Raises TraceTooShort for a negative ``n_iter``."""
    sampler = icsmc_sampler(model, N, x0.points, 1)
    steps = run_chain(sampler, n_iter, rng)
    states = np.empty((n_iter + 1, model.T), dtype=int)
    lgh = np.empty(n_iter)
    states[0] = sampler.start.paths[0]
    for j, state in enumerate(steps):
        states[j + 1] = state.paths[0]
        lgh[j] = state.log_gammas[0]
    retained = (states[1:] == states[:-1]).sum(axis=1)
    return ChainTrace(states=states, log_gamma_hats=lgh, retained=retained)
